/**
 * @file
 * Tests for the sharded event queue (sim/sharded_queue.hpp): global
 * time/schedule ordering across shards, equivalence with a single
 * queue for any shard count, per-shard clock domains, cancellation
 * routing, dispatch-bandwidth slips, and the work-stealing fallback.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

using namespace retcon;

namespace {

ShardedQueueConfig
config(unsigned nshards, unsigned bandwidth = 0, bool stealing = true)
{
    ShardedQueueConfig cfg;
    cfg.nshards = nshards;
    cfg.dispatchBandwidth = bandwidth;
    cfg.workStealing = stealing;
    return cfg;
}

} // namespace

TEST(ShardedQueue, RunsEventsInGlobalTimeOrderAcrossShards)
{
    ShardedEventQueue q(config(3));
    std::vector<int> order;
    q.schedule(2, 30, [&] { order.push_back(30); });
    q.schedule(0, 10, [&] { order.push_back(10); });
    q.schedule(1, 20, [&] { order.push_back(20); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
    EXPECT_EQ(q.now(), 30u);
    EXPECT_TRUE(q.empty());
}

TEST(ShardedQueue, SameCycleTiesBreakOnGlobalScheduleOrder)
{
    // Same-cycle events land on different shards but must fire in the
    // order they were scheduled, exactly as one queue would run them.
    ShardedEventQueue q(config(4));
    std::vector<int> order;
    q.schedule(3, 5, [&] { order.push_back(0); });
    q.schedule(1, 5, [&] { order.push_back(1); });
    q.schedule(2, 5, [&] { order.push_back(2); });
    q.schedule(0, 5, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ShardedQueue, ExecutionOrderIndependentOfShardCount)
{
    // A deterministic self-scheduling workload must execute in the
    // same order for any shard count (cores map round-robin).
    auto trace = [](unsigned nshards) {
        ShardedEventQueue q(config(nshards));
        std::vector<int> order;
        constexpr unsigned kCores = 8;
        for (unsigned c = 0; c < kCores; ++c) {
            unsigned shard = c % nshards;
            // Each "core" reschedules itself with a varying stride.
            auto tick = [&q, &order, c, shard](auto &&self,
                                               int depth) -> void {
                order.push_back(static_cast<int>(c * 100) + depth);
                if (depth >= 6)
                    return;
                q.scheduleAfter(shard, 1 + (c + depth) % 3,
                                [&, self, depth] { self(self, depth + 1); });
            };
            q.schedule(shard, c % 4, [&, tick] { tick(tick, 0); });
        }
        q.run();
        return order;
    };
    std::vector<int> one = trace(1);
    EXPECT_EQ(trace(2), one);
    EXPECT_EQ(trace(3), one);
    EXPECT_EQ(trace(8), one);
}

TEST(ShardedQueue, ShardClocksAreIndependentDomains)
{
    ShardedEventQueue q(config(2));
    q.schedule(0, 10, [] {});
    q.schedule(1, 25, [] {});
    q.run();
    EXPECT_EQ(q.shardNow(0), 10u);
    EXPECT_EQ(q.shardNow(1), 25u);
    EXPECT_EQ(q.now(), 25u);
}

TEST(ShardedQueue, CancelRoutesToTheHomeShard)
{
    ShardedEventQueue q(config(4));
    bool fired = false;
    q.schedule(0, 5, [] {});
    EventHandle h = q.schedule(3, 5, [&] { fired = true; });
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(h);
    q.cancel(h); // Idempotent.
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(ShardedQueue, CancelAfterFireIsANoOp)
{
    ShardedEventQueue q(config(2));
    int fired = 0;
    EventHandle first = q.schedule(1, 1, [&] { ++fired; });
    q.schedule(1, 2, [&] { ++fired; });
    ASSERT_TRUE(q.step());
    q.cancel(first); // Already fired: must not touch the live event.
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(ShardedQueue, CancelThenRescheduleSameCycleKeepsGlobalOrder)
{
    // exec::Core on a remote abort: cancel the core's pending event and
    // schedule its restart at the same cycle. The restart takes a fresh
    // global sequence number, so it runs after every event already due
    // that cycle on any shard, and before those scheduled after it.
    ShardedEventQueue q(config(2));
    std::vector<int> order;
    q.schedule(1, 5, [&] { order.push_back(0); });
    EventHandle h = q.schedule(0, 5, [&] { order.push_back(1); });
    q.schedule(1, 5, [&] { order.push_back(2); });
    q.cancel(h);
    q.schedule(0, 5, [&] { order.push_back(3); });
    q.schedule(1, 5, [&] { order.push_back(4); });
    q.schedule(0, 4, [&] { order.push_back(5); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{5, 0, 2, 3, 4}));
    EXPECT_EQ(q.executed(), 5u);
}

TEST(ShardedQueue, BandwidthSlipsOverQuotaEventsToLaterCycles)
{
    ShardedEventQueue q(config(1, /*bandwidth=*/1));
    std::vector<Cycle> at;
    for (int i = 0; i < 3; ++i)
        q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.run();
    // One dispatch per cycle: the burst serializes over 5, 6, 7.
    EXPECT_EQ(at, (std::vector<Cycle>{5, 6, 7}));
    EXPECT_GT(q.shardStats(0).deferred, 0u);
}

TEST(ShardedQueue, IdleShardStealsInsteadOfSlipping)
{
    ShardedEventQueue q(config(2, /*bandwidth=*/1));
    std::vector<Cycle> at;
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.run();
    // Shard 1 is idle at cycle 5 and drains shard 0's second event in
    // the same cycle — no slip.
    EXPECT_EQ(at, (std::vector<Cycle>{5, 5}));
    EXPECT_EQ(q.shardStats(1).stolen, 1u);
    EXPECT_EQ(q.shardStats(1).executed, 1u);
    EXPECT_EQ(q.shardStats(0).drained, 2u);
    EXPECT_EQ(q.shardStats(0).deferred, 0u);
}

TEST(ShardedQueue, StealingDisabledFallsBackToSlips)
{
    ShardedEventQueue q(config(2, /*bandwidth=*/1, /*stealing=*/false));
    std::vector<Cycle> at;
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.schedule(0, 5, [&] { at.push_back(q.now()); });
    q.run();
    EXPECT_EQ(at, (std::vector<Cycle>{5, 6}));
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
}

TEST(ShardedQueue, BusyShardIsNotPickedAsThief)
{
    // Both shards have an event due this cycle; neither may steal, so
    // the over-quota burst on shard 0 slips instead.
    ShardedEventQueue q(config(2, /*bandwidth=*/1));
    std::vector<std::pair<int, Cycle>> at;
    q.schedule(0, 5, [&] { at.emplace_back(0, q.now()); });
    q.schedule(0, 5, [&] { at.emplace_back(1, q.now()); });
    q.schedule(1, 5, [&] { at.emplace_back(2, q.now()); });
    q.run();
    EXPECT_EQ(at, (std::vector<std::pair<int, Cycle>>{
                      {0, 5}, {2, 5}, {1, 6}}));
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 0u);
}

TEST(ShardedQueue, PendingAndExecutedAggregateAcrossShards)
{
    ShardedEventQueue q(config(3));
    for (unsigned s = 0; s < 3; ++s)
        for (int i = 0; i < 2; ++i)
            q.schedule(s, s + 1, [] {});
    EXPECT_EQ(q.pending(), 6u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(q.executed(), 6u);
    for (unsigned s = 0; s < 3; ++s) {
        EXPECT_EQ(q.shardStats(s).scheduled, 2u);
        EXPECT_EQ(q.shardStats(s).drained, 2u);
    }
}

TEST(ShardedQueue, RunStopsAtMaxCycles)
{
    ShardedEventQueue q(config(2));
    int ran = 0;
    q.schedule(0, 10, [&] { ++ran; });
    q.schedule(1, 100, [&] { ++ran; });
    q.run(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(q.pending(), 1u);
}
