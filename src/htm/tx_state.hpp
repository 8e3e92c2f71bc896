/**
 * @file
 * Per-core transactional state.
 *
 * Groups everything a core's in-flight transaction owns: the eager
 * read/write footprint (conflict detection via the coherence protocol,
 * mirrored into the machine's per-block SharerIndex), the
 * undo log (eager version management), the RETCON structures (IVB,
 * constraint buffer, SSB), the modeled permissions-only cache that
 * absorbs speculative bits evicted from the L2 (OneTM backing, §2), the
 * DATM dependence bookkeeping, and the pre-commit walk cursor.
 */

#ifndef RETCON_HTM_TX_STATE_HPP
#define RETCON_HTM_TX_STATE_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "htm/types.hpp"
#include "htm/undo_log.hpp"
#include "mem/cache.hpp"
#include "retcon/constraint_buffer.hpp"
#include "retcon/ivb.hpp"
#include "retcon/ssb.hpp"
#include "sim/types.hpp"

namespace retcon::htm {

/** Per-transaction statistics sampled at commit (Table 3 inputs). */
struct TxnSample {
    std::uint64_t blocksLost = 0;
    std::uint64_t blocksTracked = 0;
    std::uint64_t symRegsRepaired = 0;
    std::uint64_t privateStores = 0;
    std::uint64_t constraintAddrs = 0;
    Cycle commitCycles = 0;
    Cycle lifetimeCycles = 0;
};

/**
 * Per-block speculative sharers: block -> {readers, writers} core
 * masks (bit c = core c), the directory-side view of every core's
 * speculatively-read and -written bits. A conflict check is one lookup
 * instead of a probe of every core. Only Footprint mutates it, so the
 * masks always equal the union of the cores' footprints.
 *
 * Open addressing with linear probing and backward-shift deletion:
 * blocks leave the table when their last sharer clears, so it stays
 * sized to the blocks in flight.
 */
class SharerIndex
{
  public:
    struct Sharers {
        std::uint64_t readers = 0;
        std::uint64_t writers = 0;
    };

    SharerIndex() : _table(kInitialCapacity) {}
    SharerIndex(const SharerIndex &) = delete; ///< Footprints point here.
    SharerIndex &operator=(const SharerIndex &) = delete;

    /** Sharers of @p block (both masks 0 when nobody holds it). */
    Sharers
    lookup(Addr block) const
    {
        for (std::size_t i = home(block);; i = (i + 1) & mask()) {
            const Entry &e = _table[i];
            if (e.block == block)
                return e.sharers;
            if (e.block == kEmpty)
                return {};
        }
    }

    /** Blocks with at least one sharer. */
    std::size_t size() const { return _size; }

  private:
    friend class Footprint;

    struct Entry {
        Addr block = kEmpty;
        Sharers sharers;
    };

    /// Block addresses are block-aligned, so an all-ones key is free.
    static constexpr Addr kEmpty = ~Addr(0);
    static constexpr std::size_t kInitialCapacity = 256;

    std::vector<Entry> _table; ///< Power-of-two size, load <= 1/2.
    std::size_t _size = 0;

    std::size_t mask() const { return _table.size() - 1; }

    std::size_t
    home(Addr block) const
    {
        // Fibonacci hashing of the block number.
        std::uint64_t h = (block / kBlockBytes) * 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h >> 32) & mask();
    }

    /** The entry for @p block, inserted empty if absent. */
    Sharers &
    at(Addr block)
    {
        if (2 * (_size + 1) > _table.size())
            grow();
        std::size_t i = home(block);
        for (; _table[i].block != kEmpty; i = (i + 1) & mask())
            if (_table[i].block == block)
                return _table[i].sharers;
        _table[i].block = block;
        ++_size;
        return _table[i].sharers;
    }

    /** Clear @p bit in both masks of @p block; drop it when unshared. */
    void
    clear(Addr block, std::uint64_t bit)
    {
        std::size_t i = home(block);
        while (_table[i].block != block) {
            if (_table[i].block == kEmpty)
                return;
            i = (i + 1) & mask();
        }
        Sharers &s = _table[i].sharers;
        s.readers &= ~bit;
        s.writers &= ~bit;
        if (s.readers | s.writers)
            return;
        // Backward-shift deletion: pull later members of the probe
        // run into the hole so lookups never need tombstones.
        --_size;
        for (std::size_t j = (i + 1) & mask();; j = (j + 1) & mask()) {
            if (_table[j].block == kEmpty)
                break;
            std::size_t h = home(_table[j].block);
            // Entry j may fill hole i unless its home lies cyclically
            // in (i, j].
            bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
            if (stays)
                continue;
            _table[i] = _table[j];
            i = j;
        }
        _table[i] = Entry{};
    }

    void
    grow()
    {
        std::vector<Entry> old(_table.size() * 2);
        old.swap(_table);
        for (const Entry &e : old) {
            if (e.block == kEmpty)
                continue;
            std::size_t i = home(e.block);
            while (_table[i].block != kEmpty)
                i = (i + 1) & mask();
            _table[i] = e;
        }
    }
};

/**
 * One core's transactional footprint: the blocks its current
 * transaction has speculatively read and written. Membership is a bit
 * test in the machine's SharerIndex; the per-core lists only serve
 * clear() and iteration. Every mutation goes through here, so the
 * index cannot drift from the footprints.
 */
class Footprint
{
  public:
    Footprint(SharerIndex &index, CoreId core)
        : _index(&index), _bit(std::uint64_t(1) << core)
    {}

    Footprint(const Footprint &) = delete;
    Footprint &operator=(const Footprint &) = delete;

    void
    addRead(Addr block)
    {
        SharerIndex::Sharers &s = _index->at(block);
        if (!(s.readers & _bit)) {
            s.readers |= _bit;
            _reads.push_back(block);
        }
    }

    void
    addWrite(Addr block)
    {
        SharerIndex::Sharers &s = _index->at(block);
        if (!(s.writers & _bit)) {
            s.writers |= _bit;
            _writes.push_back(block);
        }
    }

    bool
    reads(Addr block) const
    {
        return _index->lookup(block).readers & _bit;
    }

    bool
    writes(Addr block) const
    {
        return _index->lookup(block).writers & _bit;
    }

    /** Read or written. */
    bool
    touches(Addr block) const
    {
        SharerIndex::Sharers s = _index->lookup(block);
        return (s.readers | s.writers) & _bit;
    }

    /** Blocks read / written, each once, in first-access order. */
    const std::vector<Addr> &readBlocks() const { return _reads; }
    const std::vector<Addr> &writeBlocks() const { return _writes; }

    void
    clear()
    {
        for (Addr b : _reads)
            _index->clear(b, _bit);
        for (Addr b : _writes)
            _index->clear(b, _bit);
        _reads.clear();
        _writes.clear();
    }

  private:
    SharerIndex *_index;
    std::uint64_t _bit;
    std::vector<Addr> _reads;
    std::vector<Addr> _writes;
};

/** Everything one core's current transaction owns. */
struct CoreTxState {
    CoreTxState(const TMConfig &cfg, const mem::CacheGeometry &perm_geom,
                SharerIndex &sharers, CoreId core)
        : footprint(sharers, core),
          ivb(cfg.unlimitedState ? SIZE_MAX : cfg.ivbEntries),
          constraints(cfg.unlimitedState ? SIZE_MAX : cfg.constraintEntries),
          ssb(cfg.unlimitedState ? SIZE_MAX : cfg.ssbEntries),
          permCache(perm_geom)
    {}

    TxStatus status = TxStatus::Idle;

    /// Timestamp for oldest-wins arbitration; kept across retries so an
    /// aborted transaction ages toward winning (forward progress, §2).
    std::uint64_t timestamp = 0;
    bool hasTimestamp = false;

    /// Unique id of the current *attempt* (DATM dependence edges).
    std::uint64_t uid = 0;

    /// Eager conflict-detection footprint, block granularity (the
    /// modeled speculatively-read/-written cache bits).
    Footprint footprint;

    UndoLog undo;

    /// RETCON structures (Figure 5). The SSB doubles as the lazy-mode
    /// write buffer (entries with sym == nullopt).
    rtc::InitialValueBuffer ivb;
    rtc::ConstraintBuffer constraints;
    rtc::SymbolicStoreBuffer ssb;

    /// Permissions-only cache occupancy model: spec blocks evicted from
    /// the L2 land here; evicting a spec block *from here* overflows the
    /// transaction into the OneTM serialized mode.
    mem::SetAssocCache permCache;
    bool overflowed = false;
    bool overflowPending = false;

    /// DATM: uid -> edge kind of transactions that must commit before
    /// this one. Bit 0: anti/output ordering only; bit 1: dataflow
    /// (this transaction consumed or overwrote the predecessor's
    /// speculative data, so the predecessor's abort cascades here).
    std::unordered_map<std::uint64_t, std::uint8_t> datmPreds;

    /// DATM: word -> machine-global write seq of this attempt's latest
    /// store to it. The forwarding-producer index: lets a forwarded
    /// load name the producing store in O(block writers) instead of
    /// scanning undo logs (htm::TMMachine::findForwardProducer).
    std::unordered_map<Addr, std::uint64_t> datmStoreSeq;

    /// DATM: this attempt loaded a value forwarded from another
    /// in-flight transaction (word-level value flow; every such load
    /// also emitted a trace::EventKind::Forward record). Surfaced on
    /// the commit provenance record (trace::kCommitAuxDatmForwarded)
    /// so the reenactment validator knows to re-derive the attempt's
    /// forwarding chain at commit (see docs/trace-format.md).
    bool datmForwardedRead = false;

    /// Per-bank commit tokens held by this commit (bit = bank index).
    /// Managed explicitly by TMMachine::{acquire,release}CommitTokens —
    /// released on commit and on abort, never by resetSpeculation.
    std::uint64_t heldBankMask = 0;
    bool commitTokensHeld = false;

    /// Needed-bank mask cached across NACKed acquisition attempts:
    /// the commit's write targets are fixed once it reaches its
    /// commit point, so the mask is computed on the first attempt
    /// only (a contended token can be re-requested tens of thousands
    /// of times per run). Derived data — cleared by resetSpeculation.
    std::uint64_t commitBankMask = 0;
    bool commitBankMaskValid = false;

    /// Pre-commit walk cursor.
    int commitPhase = 0;
    std::size_t commitIvbIdx = 0;
    std::size_t commitSsbIdx = 0;

    Cycle txnStartCycle = 0;
    Cycle commitCycles = 0;
    std::uint64_t symRegsRepaired = 0;

    /// Root word -> final value map, published at commit for the
    /// execution layer to repair symbolic register values.
    std::unordered_map<Addr, Word> finalRoots;

    /// Block that most recently NACKed us (dedupes predictor training
    /// across the retry loop for the same request).
    Addr lastNackBlock = static_cast<Addr>(-1);

    /// A use-time equality validation already failed (set from a
    /// context that cannot abort, e.g. mid-instruction reify); the
    /// next machine operation converts it into an abort.
    bool earlyViolation = false;
    Addr earlyViolationBlock = 0;

    bool active() const { return status != TxStatus::Idle; }

    /** Reset all speculative state (after commit or abort). */
    void
    resetSpeculation()
    {
        footprint.clear();
        undo.clear();
        ivb.clear();
        constraints.clear();
        ssb.clear();
        permCache.clear();
        datmPreds.clear();
        datmStoreSeq.clear();
        datmForwardedRead = false;
        commitBankMask = 0;
        commitBankMaskValid = false;
        overflowed = false;
        overflowPending = false;
        commitPhase = 0;
        commitIvbIdx = 0;
        commitSsbIdx = 0;
        commitCycles = 0;
        symRegsRepaired = 0;
        lastNackBlock = static_cast<Addr>(-1);
        earlyViolation = false;
        earlyViolationBlock = 0;
        status = TxStatus::Idle;
    }
};

} // namespace retcon::htm

#endif // RETCON_HTM_TX_STATE_HPP
