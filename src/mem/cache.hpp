/**
 * @file
 * Set-associative cache tag array with true-LRU replacement.
 *
 * Only presence/recency metadata is modeled; data lives in the shared
 * functional SparseMemory. The same class instantiates the L1 (64KB,
 * 4-way), the private L2 (1MB, 4-way) and the permissions-only cache
 * (4KB, 4-way) from Table 1 — the permissions-only cache simply treats
 * an entry as "this block's coherence permissions and speculative
 * read/written bits survive here after data eviction" (OneTM).
 */

#ifndef RETCON_MEM_CACHE_HPP
#define RETCON_MEM_CACHE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace retcon::mem {

/** Geometry of a set-associative cache. */
struct CacheGeometry {
    std::uint64_t sizeBytes;
    unsigned ways;
    unsigned blockBytes = kBlockBytes;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) * blockBytes);
    }
};

/** Tag array with LRU replacement; blocks identified by block address. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom);

    /** True when @p block is currently resident. */
    bool contains(Addr block) const;

    /** Update LRU recency for a resident block. No-op when absent. */
    void touch(Addr block);

    /**
     * Insert @p block, evicting the set's LRU victim if the set is full.
     * @return the evicted block address, if any.
     */
    std::optional<Addr> insert(Addr block);

    /** Remove @p block if present. @return true when it was present. */
    bool invalidate(Addr block);

    /** Remove everything. */
    void clear();

    /** Number of resident blocks (for tests). */
    std::size_t occupancy() const { return _occupancy; }

    std::uint64_t numSets() const { return _setMask + 1; }
    unsigned ways() const { return _ways; }

  private:
    struct Line {
        Addr block = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    /// Every set's ways, set-major in one block: set i is lines
    /// [i * ways, (i + 1) * ways).
    std::vector<Line> _lines;
    unsigned _ways;
    std::uint64_t _setMask;
    std::uint64_t _useClock = 0;
    std::size_t _occupancy = 0;

    std::span<Line> setFor(Addr block);
    std::span<const Line> setFor(Addr block) const;
};

} // namespace retcon::mem

#endif // RETCON_MEM_CACHE_HPP
