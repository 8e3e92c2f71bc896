/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are callbacks scheduled at an absolute cycle. Events scheduled
 * for the same cycle fire in the order they were scheduled (a strictly
 * increasing sequence number breaks ties), so a simulation with a fixed
 * seed is bit-for-bit reproducible. Cancellation is supported through
 * EventHandle generations rather than queue surgery: a cancelled event
 * stays in the heap but is skipped when popped.
 */

#ifndef RETCON_SIM_EVENT_QUEUE_HPP
#define RETCON_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <queue>
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

    /** Schedule @p cb @p delta cycles from now. */
    EventHandle
    scheduleAfter(Cycle delta, Callback cb)
    {
        return schedule(_now + delta, std::move(cb));
    }

    /** Cancel a previously scheduled event. Idempotent. */
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
    struct Entry {
        Cycle when;
        std::uint64_t seq;
        std::uint64_t id;
        Callback cb;
    };

    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> _heap;
    std::vector<std::uint64_t> _cancelled;
    Cycle _now = 0;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _nextId = 1;
    std::size_t _live = 0;
    std::uint64_t _executed = 0;

    bool isCancelled(std::uint64_t id) const;
};

} // namespace retcon

#endif // RETCON_SIM_EVENT_QUEUE_HPP
