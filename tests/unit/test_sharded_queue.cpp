/**
 * @file
 * Tests for the sharded event queue (sim/sharded_queue.hpp): global
 * time/schedule ordering across shards, equivalence with a single
 * queue for any shard count, per-shard clock domains, cancellation
 * routing, dispatch-bandwidth slips, the work-stealing fallback, and
 * a differential test of the whole-cycle slip against a per-event
 * reference model of the slip loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
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

TEST(ShardedQueue, SaturatedCycleSlipsEveryDueEventAtOnce)
{
    // One shard at bandwidth 1: after the first dispatch of cycle 5 the
    // other three events slip together, then again at 6 and 7, keeping
    // their schedule order and counting one slip per event per cycle.
    ShardedEventQueue q(config(1, /*bandwidth=*/1));
    std::vector<std::pair<int, Cycle>> at;
    for (int i = 0; i < 4; ++i)
        q.schedule(0, 5, [&, i] { at.emplace_back(i, q.now()); });
    q.schedule(0, 6, [&] { at.emplace_back(4, q.now()); });
    q.run();
    EXPECT_EQ(at, (std::vector<std::pair<int, Cycle>>{
                      {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}}));
    EXPECT_EQ(q.shardStats(0).deferred, 3u + 3u + 2u + 1u);
}

TEST(ShardedQueue, SlipOnTheStepBoundaryIsCountedOnce)
{
    // step(maxCycles) slips the rest of a saturated cycle before it
    // finds the next event past its bound; the next step must not slip
    // those events again.
    ShardedEventQueue q(config(1, /*bandwidth=*/1));
    std::vector<Cycle> at;
    for (int i = 0; i < 3; ++i)
        q.schedule(0, 5, [&] { at.push_back(q.now()); });
    EXPECT_TRUE(q.step(5));
    EXPECT_FALSE(q.step(5));
    EXPECT_EQ(q.shardStats(0).deferred, 2u);
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_TRUE(q.step(6));
    EXPECT_FALSE(q.step(6));
    EXPECT_EQ(q.shardStats(0).deferred, 3u);
    q.run();
    EXPECT_EQ(at, (std::vector<Cycle>{5, 6, 7}));
    EXPECT_EQ(q.shardStats(0).deferred, 3u);
}

TEST(ShardedQueue, ScheduleIntoASlippedCycleSlipsBehindIt)
{
    // After cycle 5 slipped as a batch, an event scheduled at 5 from
    // outside a callback finds the cycle still full and slips to 6,
    // behind the events that slipped there first.
    ShardedEventQueue q(config(1, /*bandwidth=*/1));
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        q.schedule(0, 5, [&, i] { order.push_back(i); });
    EXPECT_TRUE(q.step(5));
    EXPECT_FALSE(q.step(5));
    q.schedule(0, 5, [&] { order.push_back(3); });
    q.schedule(0, 6, [&] { order.push_back(4); });
    EXPECT_FALSE(q.step(5));
    EXPECT_EQ(q.shardStats(0).deferred, 3u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardedQueue, PartialSaturationStillStealsLaterSameCycleEvents)
{
    // Shard A is full after a1 and a2 while B still has slots. a3 finds
    // B busy with b1 and slips; once b1 has run, B is idle and steals
    // a4 in the same cycle. Slipping a3's whole cycle at once would
    // have slipped a4 too, which is why a cycle in which only some
    // shards are full slips one event at a time.
    ShardedEventQueue q(config(2, /*bandwidth=*/2));
    std::vector<std::pair<std::string, Cycle>> at;
    auto ev = [&](const char *name) {
        return [&at, &q, name] { at.emplace_back(name, q.now()); };
    };
    q.schedule(0, 5, ev("a1"));
    q.schedule(0, 5, ev("a2"));
    q.schedule(0, 5, ev("a3"));
    q.schedule(1, 5, ev("b1"));
    q.schedule(0, 5, ev("a4"));
    q.run();
    EXPECT_EQ(at, (std::vector<std::pair<std::string, Cycle>>{
                      {"a1", 5}, {"a2", 5}, {"b1", 5}, {"a4", 5},
                      {"a3", 6}}));
    EXPECT_EQ(q.shardStats(0).deferred, 1u);
    EXPECT_EQ(q.shardStats(1).stolen, 1u);
    EXPECT_EQ(q.shardStats(1).executed, 2u);
}

namespace {

using ShardStats = ShardedEventQueue::ShardStats;

/**
 * Reference model of the sharded queue's dispatch loop in which every
 * slip moves one event: a linear scan for the globally earliest
 * (when, seq) event, then home shard, thief or a one-cycle slip.
 */
class RefQueue
{
  public:
    using Callback = std::function<void()>;

    explicit RefQueue(const ShardedQueueConfig &cfg)
        : _cfg(cfg), _stats(cfg.nshards), _dispatched(cfg.nshards, 0),
          _shardNow(cfg.nshards, 0)
    {}

    Cycle now() const { return _now; }
    Cycle shardNow(unsigned s) const { return _shardNow[s]; }
    const ShardStats &shardStats(unsigned s) const { return _stats[s]; }

    std::size_t
    pending() const
    {
        return std::count_if(_evs.begin(), _evs.end(),
                             [](const Ev &e) { return e.live; });
    }

    std::size_t
    schedule(unsigned shard, Cycle when, Callback cb)
    {
        _evs.push_back({when, _nextSeq++, shard, true, std::move(cb)});
        ++_stats[shard].scheduled;
        return _evs.size() - 1;
    }

    void cancel(std::size_t h) { _evs[h].live = false; }

    bool
    step(Cycle maxCycles)
    {
        for (;;) {
            int e = earliest(-1);
            if (e < 0 || _evs[e].when > maxCycles)
                return false;
            const Cycle when = _evs[e].when;
            const unsigned home = _evs[e].home;
            if (when != _dispatchCycle) {
                _dispatchCycle = when;
                std::fill(_dispatched.begin(), _dispatched.end(), 0u);
            }
            int exec = executorFor(home, when);
            if (exec < 0) {
                _evs[e].when = when + 1;
                ++_stats[home].deferred;
                continue;
            }
            ++_dispatched[exec];
            ++_stats[home].drained;
            ++_stats[exec].executed;
            _now = when;
            _shardNow[home] = when;
            _evs[e].live = false;
            Callback cb = std::move(_evs[e].cb);
            cb();
            return true;
        }
    }

  private:
    struct Ev {
        Cycle when;
        std::uint64_t seq;
        unsigned home;
        bool live;
        Callback cb;
    };

    ShardedQueueConfig _cfg;
    std::vector<Ev> _evs;
    std::vector<ShardStats> _stats;
    std::vector<unsigned> _dispatched;
    std::vector<Cycle> _shardNow;
    Cycle _now = 0;
    Cycle _dispatchCycle = 0;
    std::uint64_t _nextSeq = 1;
    unsigned _stealCursor = 0;

    /** Earliest live event homed on @p shard (-1: on any shard). */
    int
    earliest(int shard) const
    {
        int best = -1;
        for (std::size_t i = 0; i < _evs.size(); ++i) {
            const Ev &e = _evs[i];
            if (!e.live || (shard >= 0 && e.home != unsigned(shard)))
                continue;
            if (best < 0 || e.when < _evs[best].when ||
                (e.when == _evs[best].when && e.seq < _evs[best].seq))
                best = static_cast<int>(i);
        }
        return best;
    }

    int
    executorFor(unsigned home, Cycle when)
    {
        const unsigned bw = _cfg.dispatchBandwidth;
        if (bw == 0 || _dispatched[home] < bw)
            return static_cast<int>(home);
        if (!_cfg.workStealing || _cfg.nshards == 1)
            return -1;
        unsigned group = _cfg.stealGroup ? _cfg.stealGroup : _cfg.nshards;
        unsigned base = (home / group) * group;
        for (unsigned probe = 0; probe < group; ++probe) {
            unsigned t = base + (_stealCursor + probe) % group;
            if (t == home || t >= _cfg.nshards || _dispatched[t] >= bw)
                continue;
            int e = earliest(static_cast<int>(t));
            if (e >= 0 && _evs[e].when <= when)
                continue;
            _stealCursor = (t + 1) % group;
            ++_stats[t].stolen;
            return static_cast<int>(t);
        }
        return -1;
    }
};

/**
 * A seeded random schedule/cancel script run against queue @p Q. Each
 * event's callback draws from its own stream keyed by its id, so two
 * queues that dispatch the same events in the same order see the same
 * script.
 */
template <class Q>
class Script
{
  public:
    static constexpr std::size_t kMaxEvents = 300;

    Script(Q &q, unsigned nshards, std::uint64_t seed)
        : _q(q), _nshards(nshards), _seed(seed)
    {}

    /** Schedule a new event on @p shard at @p when. */
    void
    add(unsigned shard, Cycle when)
    {
        const std::size_t id = _handles.size();
        _handles.push_back(_q.schedule(shard, when, [this, id] { fire(id); }));
        _live.push_back(id);
    }

    /** Cancel the live event at position @p pick of the live list. */
    void
    cancelPick(std::uint64_t pick)
    {
        if (_live.empty())
            return;
        const std::size_t i = pick % _live.size();
        _q.cancel(_handles[_live[i]]);
        _live.erase(_live.begin() + static_cast<std::ptrdiff_t>(i));
    }

    /** (event id, dispatch cycle) in dispatch order. */
    const std::vector<std::pair<std::size_t, Cycle>> &log() const
    {
        return _log;
    }

  private:
    Q &_q;
    unsigned _nshards;
    std::uint64_t _seed;
    std::vector<decltype(std::declval<Q &>().schedule(0, 0, {}))> _handles;
    std::vector<std::size_t> _live;
    std::vector<std::pair<std::size_t, Cycle>> _log;

    void
    fire(std::size_t id)
    {
        _log.emplace_back(id, _q.now());
        _live.erase(std::find(_live.begin(), _live.end(), id));
        Xoshiro rng = Xoshiro::forThread(_seed, static_cast<std::uint32_t>(id));
        const unsigned spawn = static_cast<unsigned>(rng.below(3));
        for (unsigned k = 0; k < spawn && _handles.size() < kMaxEvents; ++k)
            add(static_cast<unsigned>(rng.below(_nshards)),
                _q.now() + rng.below(4));
        if (rng.chance(1, 3))
            cancelPick(rng.next());
    }
};

void
expectSameState(const ShardedEventQueue &q, const RefQueue &ref,
                unsigned nshards, const std::string &where)
{
    ASSERT_EQ(q.now(), ref.now()) << where;
    ASSERT_EQ(q.pending(), ref.pending()) << where;
    for (unsigned s = 0; s < nshards; ++s) {
        const ShardStats &a = q.shardStats(s);
        const ShardStats &b = ref.shardStats(s);
        ASSERT_EQ(q.shardNow(s), ref.shardNow(s)) << where << " shard " << s;
        ASSERT_EQ(a.scheduled, b.scheduled) << where << " shard " << s;
        ASSERT_EQ(a.drained, b.drained) << where << " shard " << s;
        ASSERT_EQ(a.executed, b.executed) << where << " shard " << s;
        ASSERT_EQ(a.stolen, b.stolen) << where << " shard " << s;
        ASSERT_EQ(a.deferred, b.deferred) << where << " shard " << s;
    }
}

} // namespace

TEST(ShardedQueue, MatchesThePerEventSlipReferenceModel)
{
    std::uint64_t slips = 0, steals = 0;
    for (unsigned nshards : {1u, 2u, 4u})
    for (unsigned bw : {1u, 2u, 3u})
    for (bool stealing : {false, true})
    for (unsigned group : {0u, 2u})
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        ShardedQueueConfig cfg = config(nshards, bw, stealing);
        cfg.stealGroup = group;
        const std::string where =
            "shards " + std::to_string(nshards) + " bw " +
            std::to_string(bw) + " stealing " + std::to_string(stealing) +
            " group " + std::to_string(group) + " seed " +
            std::to_string(seed);
        ShardedEventQueue q(cfg);
        RefQueue ref(cfg);
        Script<ShardedEventQueue> qs(q, nshards, seed);
        Script<RefQueue> rs(ref, nshards, seed);

        Xoshiro drive(seed * 7919 + nshards * 31 + bw);
        for (int i = 0; i < 24; ++i) {
            const unsigned shard = static_cast<unsigned>(drive.below(nshards));
            const Cycle when = drive.below(4);
            qs.add(shard, when);
            rs.add(shard, when);
        }
        for (int n = 0; n < 2000 && q.pending() > 0; ++n) {
            // Outside a callback: sometimes schedule at or just after
            // now (possibly into a cycle that already slipped), cancel,
            // or bound the step at or just after now.
            if (drive.chance(1, 4)) {
                const unsigned shard =
                    static_cast<unsigned>(drive.below(nshards));
                const Cycle when = q.now() + drive.below(3);
                qs.add(shard, when);
                rs.add(shard, when);
            }
            if (drive.chance(1, 8)) {
                const std::uint64_t pick = drive.next();
                qs.cancelPick(pick);
                rs.cancelPick(pick);
            }
            const Cycle bound =
                drive.chance(1, 3) ? q.now() + drive.below(2) : ~Cycle(0);
            const bool ran = q.step(bound);
            ASSERT_EQ(ran, ref.step(bound)) << where << " step " << n;
            ASSERT_EQ(qs.log(), rs.log()) << where << " step " << n;
            expectSameState(q, ref, nshards,
                            where + " step " + std::to_string(n));
        }
        EXPECT_EQ(q.pending(), 0u) << where;
        for (unsigned s = 0; s < nshards; ++s) {
            slips += q.shardStats(s).deferred;
            steals += q.shardStats(s).stolen;
        }
    }
    // The sweep is only a check of both slip paths if both ran.
    EXPECT_GT(slips, 0u);
    EXPECT_GT(steals, 0u);
}

namespace {

/**
 * Eight "cores", each with one event in flight on its home shard, that
 * reschedule themselves either by re-arming the running event or by
 * scheduling a fresh one; they also queue one-shot events and cancel
 * and restart one another. @return the firing log.
 */
std::vector<std::pair<int, Cycle>>
coreLoop(ShardedEventQueue &q, std::uint64_t seed, bool rearm)
{
    constexpr int kCores = 8;
    const unsigned nshards = q.numShards();
    std::vector<std::pair<int, Cycle>> log;
    std::vector<EventHandle> pending(kCores);
    std::vector<int> fires(kCores, 0);
    Xoshiro rng(seed);
    std::function<void(int)> fire;
    auto start = [&](int c, Cycle delay) {
        pending[c] = q.scheduleAfter(c % nshards, delay,
                                     [&fire, c] { fire(c); });
    };
    fire = [&](int c) {
        pending[c] = EventHandle{};
        log.emplace_back(c, q.now());
        if (++fires[c] >= 30)
            return;
        const Cycle delay = rng.below(3);
        if (rearm)
            pending[c] = q.rearmAfter(c % nshards, delay);
        else
            start(c, delay);
        if (rng.chance(1, 4)) {
            const int tag = 100 + c;
            q.scheduleAfter(static_cast<unsigned>(rng.below(nshards)),
                            rng.below(2),
                            [&log, &q, tag] { log.emplace_back(tag, q.now()); });
        }
        const int victim = static_cast<int>(rng.below(kCores));
        if (victim != c && pending[victim].valid() && rng.chance(1, 6)) {
            q.cancel(pending[victim]);
            start(victim, 1);
        }
    };
    for (int c = 0; c < kCores; ++c)
        start(c, rng.below(2));
    q.run();
    return log;
}

} // namespace

TEST(ShardedQueue, RearmMatchesScheduleUnderSlipsAndSteals)
{
    std::uint64_t slips = 0, steals = 0;
    for (unsigned nshards : {1u, 2u, 4u})
    for (unsigned bw : {0u, 1u, 2u})
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string where = "shards " + std::to_string(nshards) +
                                  " bw " + std::to_string(bw) +
                                  " seed " + std::to_string(seed);
        ShardedEventQueue a(config(nshards, bw)), b(config(nshards, bw));
        auto rearmed = coreLoop(a, seed, true);
        EXPECT_EQ(rearmed, coreLoop(b, seed, false)) << where;
        EXPECT_EQ(a.executed(), b.executed()) << where;
        EXPECT_EQ(a.now(), b.now()) << where;
        for (unsigned s = 0; s < nshards; ++s) {
            const auto &x = a.shardStats(s);
            const auto &y = b.shardStats(s);
            EXPECT_EQ(x.scheduled, y.scheduled) << where << " shard " << s;
            EXPECT_EQ(x.drained, y.drained) << where << " shard " << s;
            EXPECT_EQ(x.executed, y.executed) << where << " shard " << s;
            EXPECT_EQ(x.stolen, y.stolen) << where << " shard " << s;
            EXPECT_EQ(x.deferred, y.deferred) << where << " shard " << s;
            slips += x.deferred;
            steals += x.stolen;
        }
    }
    EXPECT_GT(slips, 0u);
    EXPECT_GT(steals, 0u);
}
