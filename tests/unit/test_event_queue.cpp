/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

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

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, [] {}), "past");
}
