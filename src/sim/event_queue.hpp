/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are callbacks scheduled at an absolute cycle. Events scheduled
 * for the same cycle fire in the order they were scheduled (a strictly
 * increasing sequence number breaks ties), so a simulation with a fixed
 * seed is bit-for-bit reproducible.
 *
 * Callbacks live in a slab of reusable slots; the binary heap orders
 * only small (when, seq, slot, gen) keys, so popping or slipping an
 * event never moves a closure. Every slot carries a generation that is
 * bumped when its event fires or is cancelled. A handle names a
 * (slot, generation) pair, which makes cancel() an O(1) generation
 * bump and turns a cancel of an event that already fired into a no-op;
 * a heap key whose generation no longer matches its slot is stale and
 * is discarded when it reaches the top.
 *
 * Slips. A slip moves a due event one cycle later and keeps its
 * sequence number. deferNext() slips the next event alone. slipDue()
 * slips every event due at a cycle at once, for a ShardedEventQueue
 * cycle in which every shard has spent its dispatch slots. Keys live
 * in one of two heaps:
 *   - the pending heap, ordered by (when, seq), holds what schedule()
 *     and deferNext() push;
 *   - the ready heap, ordered by seq alone, holds the keys slipDue()
 *     moved there. Every one of them is due at the floor cycle, which
 *     only rises. The next event is the earlier of the two tops, with
 *     a ready key read as (floor, seq).
 * slipDue(c) raises the floor to c, so the ready heap holds exactly
 * the events due at c; it counts the live ones as slipped, then raises
 * the floor to c + 1, pulling the keys due at c + 1 in beside them.
 * Each slipped event thus moves to (c + 1, seq) in O(1), not in a
 * re-key and sift of its own.
 *
 * Exactness: once every shard is full at cycle c, no further callback
 * runs at c, so the per-event rule would pop each remaining due event
 * in (c, seq) order and slip it exactly once, with no state change in
 * between (the steal cursor moves only on a steal). Afterwards every
 * such event is at (c + 1, seq), which is where the batch leaves it,
 * and each shard has counted the same slips. While the ready heap is
 * empty, peekNext() and step() take the pending-heap path alone, so a
 * run with no batched slip pays one emptiness test per call.
 *
 * Re-arms. An owner with one event in flight at a time (a simulated
 * core) schedules its next event from inside the running one. Instead
 * of retiring the running event's slot and filling a fresh one,
 * rearmCurrent() hands the running event a new key: it keeps its slot
 * and callback and takes a new generation and the next sequence
 * number, exactly what schedule() would have taken at that point, so
 * the order of every event is unchanged. step() keeps the fired key
 * at the pending top while the callback runs; a re-arm that finds it
 * still there re-keys it in place (one sift-down instead of a pop and
 * a push), and otherwise pushes a new key (the event came from the
 * ready heap, or the callback pruned the top). A re-armed event is an
 * ordinary live event afterwards: it is cancelled, slipped, counted
 * and executed like any other.
 */

#ifndef RETCON_SIM_EVENT_QUEUE_HPP
#define RETCON_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hpp"

namespace retcon {

/** Opaque ticket identifying a scheduled event so it can be cancelled. */
struct EventHandle {
    std::uint64_t id = 0;

    bool valid() const { return id != 0; }
};

/**
 * Cycle-ordered event queue driving the whole simulation.
 *
 * The queue owns the simulated clock: now() advances only when run()
 * pops an event scheduled later than the current cycle. When used as
 * one shard of a ShardedEventQueue (sim/sharded_queue.hpp), the owner
 * supplies globally unique sequence numbers through scheduleSeq() and
 * drives execution through peekNext()/step(), so this clock becomes
 * the shard's local clock domain.
 */
class EventQueue : public SimClock
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const override { return _now; }

    /**
     * Schedule @p cb to run at absolute cycle @p when.
     * @return a handle usable with cancel().
     */
    EventHandle schedule(Cycle when, Callback cb);

    /**
     * Schedule with a caller-supplied tie-break sequence number.
     * A ShardedEventQueue allocates these from one global counter so
     * same-cycle events merge across shards in schedule order exactly
     * as a single queue would order them.
     */
    EventHandle scheduleSeq(Cycle when, std::uint64_t seq, Callback cb);

    /**
     * Peek at the next live event without running it (prunes cancelled
     * entries from the heap top). @return false when drained.
     */
    bool peekNext(Cycle &when, std::uint64_t &seq);

    /**
     * Re-schedule the next live event to @p new_when, keeping its
     * sequence number (and therefore its order relative to events it
     * was already ahead of). Used by the sharded queue to model
     * per-cycle dispatch-bandwidth slips. Call only after a successful
     * peekNext(); @p new_when must not be in the past.
     */
    void deferNext(Cycle new_when);

    /**
     * Slip every live event due at @p when to @p when + 1 at once,
     * keeping sequence numbers. Call only when no live event is due
     * earlier than @p when. @return the number of events slipped.
     */
    std::size_t slipDue(Cycle when);

    /** Schedule @p cb @p delta cycles from now. */
    EventHandle
    scheduleAfter(Cycle delta, Callback cb)
    {
        return schedule(_now + delta, std::move(cb));
    }

    /**
     * From inside a running event's callback, schedule that same
     * callback again at absolute cycle @p when (see "Re-arms" above).
     * At most once per run, unless the re-armed event was cancelled.
     * @return a handle usable with cancel().
     */
    EventHandle
    rearmCurrent(Cycle when)
    {
        return rearmCurrentSeq(when, _nextSeq++);
    }

    /** rearmCurrent() with a caller-supplied sequence number. */
    EventHandle rearmCurrentSeq(Cycle when, std::uint64_t seq);

    /** Re-arm the running event @p delta cycles from now. */
    EventHandle
    rearmAfter(Cycle delta)
    {
        return rearmCurrent(_now + delta);
    }

    /**
     * Cancel a previously scheduled event. Idempotent, and a no-op on
     * a handle whose event already fired.
     */
    void cancel(EventHandle h);

    /** True when no live events remain. */
    bool empty() const { return _live == 0; }

    /** Number of live (non-cancelled) pending events. */
    std::size_t pending() const { return _live; }

    /**
     * Run until the queue drains or @p maxCycles elapses.
     * @return the final value of now().
     */
    Cycle run(Cycle maxCycles = ~Cycle(0));

    /** Pop and run exactly one live event. @return false if drained. */
    bool step();

    /** Total events executed since construction (for stats/tests). */
    std::uint64_t executed() const { return _executed; }

  private:
    /** Heap key: orders an event without touching its callback. */
    struct Key {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;

        /// (when, seq) order as one 128-bit compare: the sifts' branch
        /// on it is data-dependent, and this form compiles to a
        /// compare-and-borrow the compiler need not branch on.
        bool
        before(const Key &o) const
        {
            using U = unsigned __int128;
            return ((U(when) << 64) | seq) < ((U(o.when) << 64) | o.seq);
        }
    };

    struct Slot {
        Callback cb;
        std::uint32_t gen = 1;
        bool ready = false; ///< The live key sits in the ready heap.
    };

    /// A handle packs (gen << kSlotBits) | slot into 56 bits, below the
    /// ShardedEventQueue's shard byte.
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;

    std::vector<Key> _heap;  ///< Pending: binary min-heap on (when, seq).
    std::vector<Key> _ready; ///< Due at _floor: binary min-heap on seq.
    std::vector<Slot> _slots;
    std::vector<std::uint32_t> _free;
    Cycle _floor = 0;
    std::size_t _readyLive = 0; ///< Live (non-cancelled) ready keys.
    Cycle _now = 0;
    std::uint64_t _nextSeq = 1;
    std::size_t _live = 0;
    std::uint64_t _executed = 0;

    /// While a callback runs: its fired key, and the slot its live
    /// re-arm holds (kNoSlot when none). _running.slot is kNoSlot
    /// between callbacks.
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);
    Key _running{0, 0, kNoSlot, 0};
    std::uint32_t _rearmed = kNoSlot;

    bool stale(const Key &k) const { return _slots[k.slot].gen != k.gen; }

    /** Release @p slot: bump its generation and recycle it. */
    void retire(std::uint32_t slot);

    /**
     * Recycle @p slot, whose generation was already bumped. A slot
     * whose generation wrapped to 0 is never reused, so no handle or
     * heap key can ever alias a later event.
     */
    void
    release(std::uint32_t slot)
    {
        if (_slots[slot].gen != 0)
            _free.push_back(slot);
    }

    /** A free slot (recycled or new) for a new event. */
    std::uint32_t allocSlot();

    void pushPending(const Key &k);

    /** Drop stale keys from the pending top. @return false if empty. */
    bool pruneTop();

    /**
     * Prune both heaps' tops. @return true when the ready top is the
     * next live event. Callers test _ready.empty() first, so a queue
     * with no slipped events never calls it.
     */
    bool readyLeads();

    /**
     * Raise the floor to @p floor (it never falls) and move the pending
     * keys due by @p floor into the ready heap.
     */
    void raiseFloor(Cycle floor);

    void popTop();

    /** Pop the ready top, as a key due at the floor. */
    Key takeReady();
};

} // namespace retcon

#endif // RETCON_SIM_EVENT_QUEUE_HPP
