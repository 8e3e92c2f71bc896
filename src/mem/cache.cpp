#include "mem/cache.hpp"

namespace retcon::mem {

SetAssocCache::SetAssocCache(const CacheGeometry &geom)
    : _ways(geom.ways), _setMask(geom.numSets() - 1)
{
    std::uint64_t nsets = geom.numSets();
    sim_assert(nsets > 0 && (nsets & (nsets - 1)) == 0,
               "cache set count must be a nonzero power of two");
    _lines.resize(nsets * _ways);
}

std::span<SetAssocCache::Line>
SetAssocCache::setFor(Addr block)
{
    std::uint64_t idx = (block / kBlockBytes) & _setMask;
    return {_lines.data() + idx * _ways, _ways};
}

std::span<const SetAssocCache::Line>
SetAssocCache::setFor(Addr block) const
{
    std::uint64_t idx = (block / kBlockBytes) & _setMask;
    return {_lines.data() + idx * _ways, _ways};
}

bool
SetAssocCache::contains(Addr block) const
{
    for (const auto &line : setFor(block))
        if (line.valid && line.block == block)
            return true;
    return false;
}

void
SetAssocCache::touch(Addr block)
{
    for (auto &line : setFor(block)) {
        if (line.valid && line.block == block) {
            line.lastUse = ++_useClock;
            return;
        }
    }
}

std::optional<Addr>
SetAssocCache::insert(Addr block)
{
    std::span<Line> set = setFor(block);
    // Already resident: refresh recency.
    for (auto &line : set) {
        if (line.valid && line.block == block) {
            line.lastUse = ++_useClock;
            return std::nullopt;
        }
    }
    // Free way available.
    for (auto &line : set) {
        if (!line.valid) {
            line = Line{block, true, ++_useClock};
            ++_occupancy;
            return std::nullopt;
        }
    }
    // Evict LRU.
    Line *victim = &set[0];
    for (auto &line : set)
        if (line.lastUse < victim->lastUse)
            victim = &line;
    Addr evicted = victim->block;
    *victim = Line{block, true, ++_useClock};
    return evicted;
}

bool
SetAssocCache::invalidate(Addr block)
{
    for (auto &line : setFor(block)) {
        if (line.valid && line.block == block) {
            line.valid = false;
            --_occupancy;
            return true;
        }
    }
    return false;
}

void
SetAssocCache::clear()
{
    for (auto &line : _lines)
        line.valid = false;
    _occupancy = 0;
}

} // namespace retcon::mem
