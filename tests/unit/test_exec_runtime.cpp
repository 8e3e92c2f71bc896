/**
 * @file
 * Integration tests for the coroutine execution runtime: transaction
 * retry, commit-value delivery with symbolic repair, barriers, cycle
 * accounting, and the serializability property suite (random counter
 * programs must produce identical committed state in every TM mode).
 */

#include <gtest/gtest.h>

#include "exec/cluster.hpp"
#include "trace/sink.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;

Task<TxValue>
incrementBody(Tx &tx, Addr addr, std::int64_t delta)
{
    TxValue v = co_await tx.load(addr);
    v = tx.add(v, delta);
    co_await tx.store(addr, v);
    co_return v;
}

} // namespace

TEST(ExecRuntime, SingleThreadTxnDeliversValue)
{
    ClusterConfig cfg;
    cfg.numThreads = 1;
    cfg.tm.mode = htm::TMMode::Eager;
    Cluster cl(cfg);
    cl.memory().writeWord(kCounter, 41);
    Word seen = 0;
    cl.start([&](WorkerCtx &ctx) -> Task<void> {
        TxValue r = co_await ctx.txn([](Tx &tx) {
            return incrementBody(tx, kCounter, 1);
        });
        seen = r.raw();
        co_await ctx.barrier();
    });
    cl.run();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(cl.memory().readWord(kCounter), 42u);
}

TEST(ExecRuntime, ReturnedSymbolicValueIsRepaired)
{
    // Under RETCON the returned value must reflect the *final* input
    // value, not the one observed during execution.
    ClusterConfig cfg;
    cfg.numThreads = 2;
    cfg.tm.mode = htm::TMMode::Retcon;
    Cluster cl(cfg);
    cl.machine().predictor().observeConflict(blockAddr(kCounter));
    Word results[2] = {};
    cl.start([&](WorkerCtx &ctx) -> Task<void> {
        TxValue r = co_await ctx.txn([](Tx &tx) {
            return incrementBody(tx, kCounter, 1);
        });
        results[ctx.tid()] = r.raw();
        co_await ctx.barrier();
    });
    cl.run();
    EXPECT_EQ(cl.memory().readWord(kCounter), 2u);
    // One transaction returned 1, the other (repaired) returned 2.
    EXPECT_EQ(results[0] + results[1], 3u);
}

TEST(ExecRuntime, AccountingPartitionsCoreTime)
{
    ClusterConfig cfg;
    cfg.numThreads = 4;
    cfg.tm.mode = htm::TMMode::Eager;
    Cluster cl(cfg);
    cl.start([&](WorkerCtx &ctx) -> Task<void> {
        for (int i = 0; i < 10; ++i) {
            co_await ctx.txn([](Tx &tx) {
                return incrementBody(tx, kCounter, 1);
            });
            co_await ctx.work(17);
        }
        co_await ctx.barrier();
    });
    cl.run();
    for (unsigned c = 0; c < 4; ++c) {
        const auto &core = cl.core(c);
        // Every cycle from 0 to the finish cycle lands in a bucket.
        EXPECT_NEAR(core.breakdown().total(),
                    double(core.stats().finishCycle), 2.0)
            << "core " << c;
    }
}

TEST(ExecRuntime, WorkChargesExactCycles)
{
    ClusterConfig cfg;
    cfg.numThreads = 1;
    Cluster cl(cfg);
    cl.start([&](WorkerCtx &ctx) -> Task<void> {
        co_await ctx.work(123);
        co_await ctx.barrier();
    });
    Cycle end = cl.run();
    EXPECT_GE(end, 123u);
    EXPECT_LE(end, 130u); // + barrier release cycle.
}

TEST(ExecRuntime, BarrierReleasesAllTogether)
{
    ClusterConfig cfg;
    cfg.numThreads = 4;
    Cluster cl(cfg);
    Cycle releases[4] = {};
    cl.start([&](WorkerCtx &ctx) -> Task<void> {
        co_await ctx.work(100 * (ctx.tid() + 1));
        co_await ctx.barrier();
        releases[ctx.tid()] = cl.eventQueue().now();
        co_await ctx.barrier();
    });
    cl.run();
    // All threads resumed at the same cycle, after the slowest (400).
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(releases[i], releases[0]);
        EXPECT_GE(releases[i], 400u);
    }
    // The early arrivals accumulated barrier time.
    EXPECT_GT(cl.core(0).breakdown().barrier, 250.0);
}

TEST(ExecRuntime, AbortedAttemptsRetryUntilCommit)
{
    ClusterConfig cfg;
    cfg.numThreads = 8;
    cfg.tm.mode = htm::TMMode::Eager;
    Cluster cl(cfg);
    cl.start([&](WorkerCtx &ctx) -> Task<void> {
        for (int i = 0; i < 25; ++i)
            co_await ctx.txn([](Tx &tx) {
                return incrementBody(tx, kCounter, 1);
            });
        co_await ctx.barrier();
    });
    cl.run();
    EXPECT_EQ(cl.memory().readWord(kCounter), 200u);
    auto agg = cl.aggregateStats();
    EXPECT_EQ(agg.commits, 200u);
    EXPECT_GT(agg.aborts + cl.machine().stats().nacks, 0u)
        << "8 threads on one counter must have conflicted";
}

TEST(ExecRuntime, DeterministicAcrossRuns)
{
    auto run = [] {
        ClusterConfig cfg;
        cfg.numThreads = 6;
        cfg.tm.mode = htm::TMMode::Retcon;
        cfg.seed = 33;
        Cluster cl(cfg);
        cl.machine().predictor().observeConflict(blockAddr(kCounter));
        cl.start([&](WorkerCtx &ctx) -> Task<void> {
            for (int i = 0; i < 20; ++i) {
                co_await ctx.txn([](Tx &tx) {
                    return incrementBody(tx, kCounter, 1);
                });
                co_await ctx.work(ctx.rng().below(50));
            }
            co_await ctx.barrier();
        });
        return cl.run();
    };
    EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------
// Serializability property suite: random multi-counter programs must
// leave the same committed sums in every mode (adds commute, so the
// final value of each counter equals the sum of all committed deltas,
// which equals the statically-known total).
// ---------------------------------------------------------------------

class SerializabilityTest
    : public ::testing::TestWithParam<std::tuple<htm::TMMode, int>>
{};

TEST_P(SerializabilityTest, RandomCounterProgramsCommitExactly)
{
    auto [mode, seed] = GetParam();
    constexpr int kCounters = 6;
    constexpr int kTxnsPerThread = 30;
    const unsigned nthreads = 6;

    ClusterConfig cfg;
    cfg.numThreads = nthreads;
    cfg.tm.mode = mode;
    cfg.seed = seed;
    Cluster cl(cfg);
    for (int c = 0; c < kCounters; ++c)
        cl.machine().predictor().observeConflict(
            blockAddr(0x1000 + Addr(c) * kBlockBytes));

    // Expected totals computed from the same deterministic streams.
    std::int64_t expected[kCounters] = {};
    for (unsigned t = 0; t < nthreads; ++t) {
        Xoshiro rng = Xoshiro::forThread(7 * seed + 1, t);
        for (int i = 0; i < kTxnsPerThread; ++i) {
            int c = static_cast<int>(rng.below(kCounters));
            std::int64_t d =
                static_cast<std::int64_t>(rng.below(9)) - 4;
            expected[c] += d;
        }
    }

    cl.start([&](WorkerCtx &ctx) -> Task<void> {
        Xoshiro rng =
            Xoshiro::forThread(7 * Word(std::get<1>(GetParam())) + 1,
                               ctx.tid());
        for (int i = 0; i < kTxnsPerThread; ++i) {
            int c = static_cast<int>(rng.below(kCounters));
            std::int64_t d =
                static_cast<std::int64_t>(rng.below(9)) - 4;
            Addr addr = 0x1000 + Addr(c) * kBlockBytes;
            co_await ctx.txn([addr, d](Tx &tx) {
                return incrementBody(tx, addr, d);
            });
        }
        co_await ctx.barrier();
    });
    cl.run();

    for (int c = 0; c < kCounters; ++c) {
        EXPECT_EQ(static_cast<std::int64_t>(cl.memory().readWord(
                      0x1000 + Addr(c) * kBlockBytes)),
                  expected[c])
            << "counter " << c << " under mode "
            << htm::tmModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SerializabilityTest,
    ::testing::Combine(
        ::testing::Values(htm::TMMode::Serial, htm::TMMode::Eager,
                          htm::TMMode::Lazy, htm::TMMode::LazyVB,
                          htm::TMMode::Retcon, htm::TMMode::DATM),
        ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------
// Re-armed core events and the lean NACK retry: a run must be
// identical, record for record, to the same run on the full retry path.
// ---------------------------------------------------------------------

namespace retcon::htm {

/** Switches TMMachine::leanRetry off, so every retry takes the full
 *  txLoad/txStore path. */
class MachineTestPeer
{
  public:
    static void
    setLeanRetries(TMMachine &tm, bool on)
    {
        tm._leanRetries = on;
    }
};

} // namespace retcon::htm

namespace {

constexpr Addr kA = 0x4000;
constexpr Addr kB = 0x8000;

/** Everything a run leaves behind that a retry path could perturb. */
struct RunOutcome {
    Cycle cycles = 0;
    std::vector<trace::Record> records;
    htm::MachineStats stats;
    std::vector<CoreStats> cores;
    std::vector<TimeBreakdown> breakdowns;
    Word a = 0;
    Word b = 0;
};

RunOutcome
runProgram(const ClusterConfig &base, bool lean,
           const Core::ProgramFactory &program)
{
    RunOutcome out;
    trace::VectorSink sink(out.records);
    ClusterConfig cfg = base;
    cfg.traceSink = &sink;
    Cluster cl(cfg);
    htm::MachineTestPeer::setLeanRetries(cl.machine(), lean);
    cl.start(program);
    out.cycles = cl.run();
    out.stats = cl.machine().stats();
    for (CoreId c = 0; c < cfg.numThreads; ++c) {
        out.cores.push_back(cl.core(c).stats());
        out.breakdowns.push_back(cl.core(c).breakdown());
    }
    out.a = cl.memory().readWord(kA);
    out.b = cl.memory().readWord(kB);
    return out;
}

void
expectSameRun(const RunOutcome &lean, const RunOutcome &full)
{
    EXPECT_EQ(lean.cycles, full.cycles);
    EXPECT_EQ(lean.a, full.a);
    EXPECT_EQ(lean.b, full.b);
    EXPECT_EQ(lean.stats.nacks, full.stats.nacks);
    EXPECT_EQ(lean.stats.conflicts, full.stats.conflicts);
    EXPECT_EQ(lean.stats.commits, full.stats.commits);
    EXPECT_EQ(lean.stats.aborts, full.stats.aborts);
    EXPECT_EQ(lean.stats.backoffNacks, full.stats.backoffNacks);
    EXPECT_EQ(lean.stats.backoffCycles, full.stats.backoffCycles);
    for (int c = 0; c < 10; ++c)
        EXPECT_EQ(lean.stats.abortsByCause[c], full.stats.abortsByCause[c])
            << htm::abortCauseName(static_cast<htm::AbortCause>(c));
    ASSERT_EQ(lean.cores.size(), full.cores.size());
    for (std::size_t c = 0; c < lean.cores.size(); ++c) {
        EXPECT_EQ(lean.cores[c].commits, full.cores[c].commits) << c;
        EXPECT_EQ(lean.cores[c].aborts, full.cores[c].aborts) << c;
        EXPECT_EQ(lean.cores[c].finishCycle, full.cores[c].finishCycle)
            << c;
        EXPECT_EQ(lean.breakdowns[c].conflict, full.breakdowns[c].conflict)
            << c;
        EXPECT_EQ(lean.breakdowns[c].busy, full.breakdowns[c].busy) << c;
    }
    ASSERT_EQ(lean.records.size(), full.records.size());
    for (std::size_t i = 0; i < lean.records.size(); ++i)
        ASSERT_TRUE(trace::recordsIdentical(lean.records[i],
                                            full.records[i]))
            << "record " << i;
}

/** Older transaction: owns A, works, then takes B from the younger. */
Task<TxValue>
olderBody(Tx &tx, Cycle hold)
{
    co_await tx.store(kA, TxValue(Word(1)));
    co_await tx.work(hold);
    co_await tx.store(kB, TxValue(Word(1)));
    co_return TxValue(Word(0));
}

/** Younger transaction: owns B, then parks on the older's A. */
Task<TxValue>
youngerBody(Tx &tx)
{
    co_await tx.store(kB, TxValue(Word(2)));
    TxValue v = co_await tx.load(kA);
    co_return v;
}

/** Core 0 runs the older transaction, core 1 the younger one. */
Core::ProgramFactory
parkedProgram(Cycle hold)
{
    return [hold](WorkerCtx &ctx) -> Task<void> {
        if (ctx.tid() == 0)
            co_await ctx.txn(
                [hold](Tx &tx) { return olderBody(tx, hold); });
        else
            co_await ctx.txn([](Tx &tx) { return youngerBody(tx); });
        co_await ctx.barrier();
    };
}

std::vector<trace::Record>
abortsOf(const std::vector<trace::Record> &records, htm::AbortCause cause)
{
    std::vector<trace::Record> out;
    for (const trace::Record &r : records)
        if (r.kind == trace::EventKind::Abort &&
            r.aux == static_cast<std::uint8_t>(cause))
            out.push_back(r);
    return out;
}

} // namespace

TEST(LeanRetry, RemoteAbortOfAParkedCoreCancelsCleanly)
{
    // Core 1 parks on NACK retries of A (its re-armed event pending)
    // until core 0, older, takes B from it: the remote abort must
    // cancel the parked retry, restart core 1, and let both commit.
    ClusterConfig cfg;
    cfg.numThreads = 2;
    cfg.tm.mode = htm::TMMode::Eager;
    RunOutcome lean = runProgram(cfg, true, parkedProgram(400));
    EXPECT_EQ(lean.a, 1u);
    EXPECT_EQ(lean.b, 2u); // The restarted younger commits last.
    EXPECT_EQ(lean.cores[0].commits, 1u);
    EXPECT_EQ(lean.cores[1].commits, 1u);
    EXPECT_EQ(lean.cores[1].aborts, 1u);
    EXPECT_EQ(lean.cores[0].aborts, 0u);
    EXPECT_EQ(abortsOf(lean.records, htm::AbortCause::Conflict).size(),
              1u);
    // Parked for most of the 400-cycle hold: many lean retries.
    EXPECT_GT(lean.stats.nacks, 10u);
    expectSameRun(lean, runProgram(cfg, false, parkedProgram(400)));
}

TEST(LeanRetry, ZombieAbortLandsOnTheFullPathsOpAndCycle)
{
    // With a small op bound, core 1's parked load turns zombie: each
    // attempt issues its store and its load, is NACKed on the load and
    // its retries, and is discarded on op zombieOpLimit + 1 (the
    // counter lives in Core and counts lean retries like full ones).
    constexpr std::uint64_t kLimit = 6;
    ClusterConfig cfg;
    cfg.numThreads = 2;
    cfg.tm.mode = htm::TMMode::Eager;
    cfg.tm.zombieOpLimit = kLimit;
    RunOutcome lean = runProgram(cfg, true, parkedProgram(2000));
    RunOutcome full = runProgram(cfg, false, parkedProgram(2000));
    auto zombies = abortsOf(lean.records, htm::AbortCause::Zombie);
    ASSERT_GT(zombies.size(), 2u);
    for (std::size_t i = 1; i < zombies.size(); ++i)
        EXPECT_EQ(zombies[i].cycle - zombies[i - 1].cycle,
                  zombies[1].cycle - zombies[0].cycle)
            << "every zombie attempt lasts the same number of ops";
    auto full_zombies = abortsOf(full.records, htm::AbortCause::Zombie);
    ASSERT_EQ(zombies.size(), full_zombies.size());
    for (std::size_t i = 0; i < zombies.size(); ++i)
        EXPECT_EQ(zombies[i].cycle, full_zombies[i].cycle) << i;
    // Ops 2..kLimit of every zombie attempt were NACKed.
    EXPECT_GE(lean.stats.nacks, (kLimit - 1) * zombies.size());
    expectSameRun(lean, full);
}

TEST(LeanRetry, LinearBackoffLatenciesMatchTheFullRetry)
{
    // Linear backoff with jitter draws from the per-core RNG on every
    // NACK: a lean retry must consume the same draws and streak steps.
    for (htm::TMMode mode : {htm::TMMode::Eager, htm::TMMode::LazyVB,
                             htm::TMMode::Retcon}) {
        ClusterConfig cfg;
        cfg.numThreads = 6;
        cfg.tm.mode = mode;
        cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
        cfg.tm.backoff.jitter = true;
        auto program = [](WorkerCtx &ctx) -> Task<void> {
            for (int i = 0; i < 12; ++i) {
                Addr addr = ctx.rng().below(2) ? kA : kB;
                co_await ctx.txn([addr](Tx &tx) {
                    return incrementBody(tx, addr, 1);
                });
                co_await ctx.work(ctx.rng().below(20));
            }
            co_await ctx.barrier();
        };
        RunOutcome lean = runProgram(cfg, true, program);
        SCOPED_TRACE(htm::tmModeName(mode));
        EXPECT_EQ(lean.a + lean.b, 72u);
        EXPECT_GT(lean.stats.backoffNacks, 0u);
        expectSameRun(lean, runProgram(cfg, false, program));
    }
}
