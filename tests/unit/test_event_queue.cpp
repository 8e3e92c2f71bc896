/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

using namespace retcon;

TEST(EventQueue, StartsAtCycleZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleEventsFireInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ClockAdvancesOnlyWhenEventsFire)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    EXPECT_EQ(eq.now(), 0u);
    eq.step();
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, CancelledEventsDoNotFire)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h = eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.cancel(h);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue eq;
    EventHandle h = eq.schedule(10, [] {});
    eq.cancel(h);
    eq.cancel(h);
    eq.cancel(EventHandle{});
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    EventHandle a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CancelAfterFireIsANoOp)
{
    EventQueue eq;
    int fired = 0;
    EventHandle first = eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    ASSERT_TRUE(eq.step());
    eq.cancel(first); // Already fired: must not touch the live event.
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StaleHandleDoesNotCancelTheSlotsNextEvent)
{
    // The fired event's slot is reused by the next schedule; the old
    // handle names the old generation and must leave the new one be.
    EventQueue eq;
    bool second = false;
    EventHandle h = eq.schedule(1, [] {});
    eq.run();
    eq.schedule(5, [&] { second = true; });
    eq.cancel(h);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(second);
}

TEST(EventQueue, CancelThenRescheduleSameCycleKeepsScheduleOrder)
{
    // The exec::Core pattern: cancel the pending event, then schedule
    // a new one at the same cycle. It reuses the cancelled slot but
    // takes a fresh sequence number, so it runs after every event
    // already due that cycle.
    EventQueue eq;
    std::vector<int> order;
    EventHandle h = eq.schedule(5, [&] { order.push_back(0); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.cancel(h);
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleAfter(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventQueue, RunStopsAtMaxCycles)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(1000, [&] { ++fired; });
    eq.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ExecutedCountsFiredEventsOnly)
{
    EventQueue eq;
    EventHandle h = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.cancel(h);
    eq.run();
    EXPECT_EQ(eq.executed(), 1u);
}

namespace {

/** An event queue whose events log (tag, cycle) as they fire. */
struct SlipLog {
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> at;

    EventHandle
    add(int tag, Cycle when)
    {
        return eq.schedule(when,
                           [this, tag] { at.emplace_back(tag, eq.now()); });
    }
};

} // namespace

TEST(EventQueueSlip, SlipDueMovesEveryDueEventOneCycleInOrder)
{
    SlipLog q;
    q.add(0, 5);
    q.add(1, 5);
    q.add(2, 6);
    q.add(3, 5);
    q.add(4, 7);
    EXPECT_EQ(q.eq.slipDue(5), 3u);
    // The slipped events join the one already at 6 in schedule order.
    Cycle when;
    std::uint64_t seq;
    ASSERT_TRUE(q.eq.peekNext(when, seq));
    EXPECT_EQ(when, 6u);
    q.eq.run();
    EXPECT_EQ(q.at, (std::vector<std::pair<int, Cycle>>{
                        {0, 6}, {1, 6}, {2, 6}, {3, 6}, {4, 7}}));
}

TEST(EventQueueSlip, CancelOfASlippedEventIsNotSlippedAgain)
{
    SlipLog q;
    q.add(0, 5);
    EventHandle h = q.add(1, 5);
    q.add(2, 5);
    EXPECT_EQ(q.eq.slipDue(5), 3u);
    q.eq.cancel(h);
    q.eq.cancel(h); // Idempotent on a ready event too.
    EXPECT_EQ(q.eq.pending(), 2u);
    EXPECT_EQ(q.eq.slipDue(6), 2u);
    q.eq.run();
    EXPECT_EQ(q.at, (std::vector<std::pair<int, Cycle>>{{0, 7}, {2, 7}}));
}

TEST(EventQueueSlip, ScheduleAtOrBelowTheFloor)
{
    // After slipping cycle 5 the floor is 6. An event scheduled at 6
    // orders by its sequence number among the slipped ones; one
    // scheduled at 5 runs first, and slipping it again moves it to 6
    // without slipping the events already there.
    SlipLog q;
    q.add(0, 5);
    q.add(1, 5);
    EXPECT_EQ(q.eq.slipDue(5), 2u);
    q.add(2, 6);
    q.add(3, 5);
    q.add(4, 5);
    EXPECT_EQ(q.eq.slipDue(5), 2u);
    q.add(5, 5);
    q.eq.run();
    EXPECT_EQ(q.at, (std::vector<std::pair<int, Cycle>>{
                        {5, 5}, {0, 6}, {1, 6}, {2, 6}, {3, 6}, {4, 6}}));
}

TEST(EventQueueSlip, DeferNextMovesOneSlippedEventBack)
{
    SlipLog q;
    q.add(0, 5);
    q.add(1, 5);
    q.add(2, 7);
    EXPECT_EQ(q.eq.slipDue(5), 2u);
    Cycle when;
    std::uint64_t seq;
    ASSERT_TRUE(q.eq.peekNext(when, seq));
    EXPECT_EQ(when, 6u);
    q.eq.deferNext(7);
    ASSERT_TRUE(q.eq.peekNext(when, seq));
    EXPECT_EQ(when, 6u);
    q.eq.run();
    // Event 0 keeps its sequence number, so it still precedes 2 at 7.
    EXPECT_EQ(q.at, (std::vector<std::pair<int, Cycle>>{
                        {1, 6}, {0, 7}, {2, 7}}));
}

TEST(EventQueueSlip, RunStopsAtMaxCyclesWithSlippedEvents)
{
    SlipLog q;
    q.add(0, 5);
    q.add(1, 5);
    EXPECT_EQ(q.eq.slipDue(5), 2u);
    q.eq.run(5);
    EXPECT_TRUE(q.at.empty());
    q.eq.run(6);
    EXPECT_EQ(q.at.size(), 2u);
    EXPECT_EQ(q.eq.now(), 6u);
}

namespace {

/**
 * Log of a self-rescheduling event (tags 100+) interleaved with plain
 * same-cycle events, rescheduling through rearmAfter() or through a
 * fresh scheduleAfter().
 */
std::vector<std::pair<int, Cycle>>
selfRescheduling(bool rearm)
{
    EventQueue eq;
    std::vector<std::pair<int, Cycle>> at;
    int firings = 0;
    std::function<void()> self;
    self = [&] {
        at.emplace_back(100 + firings, eq.now());
        if (++firings == 4)
            return;
        if (rearm)
            eq.rearmAfter(5);
        else
            eq.scheduleAfter(5, self);
        // Scheduled after the re-arm: the same cycle, a later seq.
        int tag = 200 + firings;
        eq.scheduleAfter(5, [&at, &eq, tag] { at.emplace_back(tag, eq.now()); });
    };
    eq.schedule(5, [&] { at.emplace_back(1, eq.now()); });
    eq.schedule(0, self);
    eq.schedule(5, [&] { at.emplace_back(2, eq.now()); });
    eq.run();
    EXPECT_EQ(eq.executed(), 9u);
    EXPECT_TRUE(eq.empty());
    return at;
}

} // namespace

TEST(EventQueueRearm, TakesTheSeqAndOrderOfSchedule)
{
    auto rearmed = selfRescheduling(true);
    EXPECT_EQ(rearmed, selfRescheduling(false));
    EXPECT_EQ(rearmed, (std::vector<std::pair<int, Cycle>>{
                           {100, 0}, {1, 5}, {2, 5}, {101, 5}, {201, 5},
                           {102, 10}, {202, 10}, {103, 15}, {203, 15}}));
}

TEST(EventQueueRearm, RearmedHandleCanBeCancelled)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h;
    eq.schedule(1, [&] {
        ++fired;
        h = eq.rearmAfter(9);
    });
    eq.schedule(5, [&] { eq.cancel(h); });
    EXPECT_EQ(eq.pending(), 2u);
    eq.step();
    EXPECT_EQ(eq.pending(), 2u); // The re-arm is live.
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_TRUE(eq.empty());
    eq.cancel(h); // Idempotent after the cancel.

    // Cancelled from inside its own run, then re-armed again: only the
    // second re-arm fires, and the slot is recycled afterwards.
    EventQueue q2;
    std::vector<Cycle> at;
    q2.schedule(1, [&] {
        at.push_back(q2.now());
        if (at.size() > 1)
            return;
        EventHandle first = q2.rearmAfter(2);
        q2.cancel(first);
        EXPECT_EQ(q2.pending(), 0u);
        q2.rearmAfter(6);
    });
    q2.run();
    EXPECT_EQ(at, (std::vector<Cycle>{1, 7}));
    EXPECT_TRUE(q2.empty());
    int later = 0;
    q2.schedule(10, [&] { ++later; });
    q2.run();
    EXPECT_EQ(later, 1);
}

TEST(EventQueueRearm, CancelOfTheFiredHandleDoesNotTouchTheRearm)
{
    EventQueue eq;
    int fired = 0;
    EventHandle h;
    h = eq.schedule(1, [&] {
        if (++fired > 1)
            return;
        eq.rearmAfter(1);
        eq.cancel(h); // Names the event that fired: a no-op.
    });
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueRearm, WorksFromTheTopAndFromTheReadyHeap)
{
    SlipLog q;
    int hops = 0;
    q.eq.schedule(3, [&] {
        q.at.emplace_back(0, q.eq.now());
        if (++hops < 3)
            q.eq.rearmAfter(hops == 1 ? 0 : 2);
    });
    q.add(1, 3);
    q.add(2, 4);
    // Slip cycle 3: both events due there move to the ready heap.
    EXPECT_EQ(q.eq.slipDue(3), 2u);
    // Event 0 runs out of the ready heap and re-arms at the same cycle
    // (behind 1 and 2, which were scheduled before the re-arm), then
    // re-arms from the pending top.
    q.eq.run();
    EXPECT_EQ(q.at, (std::vector<std::pair<int, Cycle>>{
                        {0, 4}, {1, 4}, {2, 4}, {0, 4}, {0, 6}}));
    EXPECT_EQ(q.eq.executed(), 5u);
    EXPECT_TRUE(q.eq.empty());

    // A re-armed event can itself be slipped.
    SlipLog r;
    r.eq.schedule(1, [&] {
        r.at.emplace_back(0, r.eq.now());
        if (r.at.size() == 1)
            r.eq.rearmAfter(1);
    });
    r.eq.step();
    EXPECT_EQ(r.eq.slipDue(2), 1u);
    r.eq.run();
    EXPECT_EQ(r.at, (std::vector<std::pair<int, Cycle>>{{0, 1}, {0, 3}}));
}

TEST(EventQueueDeath, RearmOutsideARunningEventPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.rearmAfter(1), "re-arm outside a running event");
    eq.schedule(1, [] {});
    eq.run();
    EXPECT_DEATH(eq.rearmAfter(1), "re-arm outside a running event");
    eq.schedule(2, [&] {
        eq.rearmAfter(1);
        eq.rearmAfter(2);
    });
    EXPECT_DEATH(eq.run(), "re-armed twice");
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, [] {}), "past");
}
