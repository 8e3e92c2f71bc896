/**
 * @file
 * End-to-end tests for the sharded cluster: shard and bank counts must
 * never change simulated results (bit-identical runs and record-identical
 * traces for a fixed seed), the live-captured stream must be globally
 * ordered, complete and identical to the streamed .rtt file, the
 * per-shard counters must count only their own cores' records, the
 * ReenactmentValidator must stay sound over the merged stream with
 * N > 1 shards — including catching deliberately corrupted repairs
 * (faultInjectRepairXor) and forwards (faultInjectForwardXor) — the
 * service workload must conserve its invariants under sharding and
 * dispatch-bandwidth modeling, and repeated in-process runs of one
 * config must be identical.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/runner.hpp"
#include "exec/cluster.hpp"
#include "query/loader.hpp"
#include "trace/reenact.hpp"
#include "trace/shard_mux.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;
constexpr int kIters = 25;
constexpr unsigned kThreads = 8;

Task<TxValue>
incrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

Task<void>
threadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < kIters; ++i) {
        co_await ctx.txn([](Tx &tx) { return incrementBody(tx); });
        co_await ctx.work(20);
    }
    co_await ctx.barrier();
}

struct ShardedRun {
    Cycle cycles = 0;
    Word counter = 0;
    std::uint64_t commits = 0;
    std::uint64_t executed = 0;
    trace::ReenactReport report;
    std::vector<trace::Record> records;
    std::uint64_t muxEvents = 0;
    std::uint64_t muxRepairs = 0;
};

/** Contended-counter run on a sharded cluster: mux + validator +
 *  live capture. */
ShardedRun
runSharded(unsigned nshards, Word fault_xor = 0, unsigned bandwidth = 0,
           htm::TMMode mode = htm::TMMode::Retcon,
           Word fwd_fault_xor = 0)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = nshards;
    cfg.shardBandwidth = bandwidth;
    cfg.tm.mode = mode;
    cfg.tm.faultInjectRepairXor = fault_xor;
    cfg.tm.faultInjectForwardXor = fwd_fault_xor;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));

    ShardedRun out;
    trace::ShardMux mux(
        nshards, [&cluster](CoreId c) { return cluster.shardOf(c); });
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    trace::VectorSink capture(out.records);
    mux.addDownstream(&validator);
    mux.addDownstream(&capture);
    cluster.setTraceSink(&mux);

    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    out.cycles = cluster.run();
    out.counter = cluster.memory().readWord(kCounter);
    out.commits = cluster.aggregateStats().commits;
    out.executed = cluster.eventQueue().executed();
    out.report = validator.report();
    out.muxEvents = mux.totalEvents();
    for (unsigned s = 0; s < nshards; ++s)
        out.muxRepairs += mux.counters(s).repairs;
    return out;
}

/** Record-for-record equality of two traces. */
bool
sameTrace(const std::vector<trace::Record> &a,
          const std::vector<trace::Record> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!trace::recordsIdentical(a[i], b[i]))
            return false;
    return true;
}

/**
 * FNV-1a over every simulated observable of a RunResult. With
 * @p layout false it skips the per-shard and per-bank breakdowns, whose
 * shape depends on the shard and bank counts, so runs on different
 * layouts can be compared.
 */
std::uint64_t
fingerprint(const api::RunResult &r, bool layout = true)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(r.cycles);
    mix(r.coreStats.txns);
    mix(r.coreStats.commits);
    mix(r.coreStats.aborts);
    mix(r.coreStats.finishCycle);
    mix(r.validation.ok);
    mix(r.traceEvents);
    mix(r.reenact.commitsChecked);
    mix(r.reenact.repairsChecked);
    mix(r.reenact.forwardsChecked);
    mix(r.reenact.forwardedCommitsChecked);
    mix(r.reenact.forwardedCommitsSkipped);
    mix(r.reenact.mismatches);
    mix(r.net.messages);
    mix(r.net.payloadWords);
    mix(r.net.queueCycles);
    if (!layout)
        return h;
    for (const api::ShardSummary &s : r.shards) {
        mix(s.txns);
        mix(s.commits);
        mix(s.aborts);
        mix(s.queueScheduled);
        mix(s.queueExecuted);
        mix(s.queueStolen);
        mix(s.queueDeferred);
        mix(s.traceEvents);
        mix(s.repairs);
        mix(s.forwards);
        mix(s.tokenWaits);
        mix(s.schedObserved);
        mix(s.schedDefers);
        mix(s.schedDeferCycles);
        mix(s.schedRepairableSkips);
    }
    for (const api::BankSummary &b : r.banks) {
        mix(b.requests);
        mix(b.stalled);
        mix(b.stallCycles);
        mix(b.tokenAcquires);
        mix(b.tokenWaits);
    }
    return h;
}

/** An audited runOnce and its captured record stream. */
struct ApiRun {
    api::RunResult r;
    std::vector<trace::Record> trace;
};

ApiRun
runApi(api::RunConfig cfg, const std::string &tag)
{
    ApiRun out;
    cfg.trace.enabled = true;
    cfg.trace.captureInto = &out.trace;
    out.r = api::runOnce(cfg);
    EXPECT_TRUE(out.r.validation.ok) << tag << ": "
                                     << out.r.validation.note;
    EXPECT_EQ(out.r.reenact.mismatches, 0u)
        << tag << ": " << out.r.reenact.summary();
    EXPECT_EQ(out.r.reenact.forwardedCommitsSkipped, 0u) << tag;
    EXPECT_EQ(out.trace.size(), out.r.traceEvents) << tag;
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Determinism across shard counts
// ---------------------------------------------------------------------

TEST(ShardedExec, ShardCountDoesNotChangeCommittedState)
{
    ShardedRun one = runSharded(1);
    EXPECT_EQ(one.counter, Word(kThreads * kIters));
    ASSERT_EQ(one.report.mismatches, 0u) << one.report.summary();
    for (unsigned n : {2u, 4u, 8u}) {
        ShardedRun sharded = runSharded(n);
        // Bit-identical simulation: same makespan, same architectural
        // state, same commit and event counts, same provenance stream
        // record for record.
        EXPECT_EQ(sharded.cycles, one.cycles) << n << " shards";
        EXPECT_EQ(sharded.counter, one.counter) << n << " shards";
        EXPECT_EQ(sharded.commits, one.commits) << n << " shards";
        EXPECT_EQ(sharded.executed, one.executed) << n << " shards";
        EXPECT_EQ(sharded.muxEvents, one.muxEvents) << n << " shards";
        EXPECT_TRUE(sameTrace(sharded.records, one.records))
            << n << " shards: trace diverged";
        EXPECT_EQ(sharded.report.mismatches, 0u)
            << sharded.report.summary();
    }
}

TEST(ShardedExec, WorkloadGridBitIdenticalAcrossShardsAndBanks)
{
    // Real workloads through the public API: with dispatch bandwidth
    // and bank occupancy unmodeled, every (shards, banks) point must
    // reproduce the (1, 1) run's simulated results and its captured
    // trace record for record.
    for (const char *workload : {"service", "intruder"}) {
        api::RunConfig cfg;
        cfg.workload = workload;
        cfg.nthreads = 8;
        cfg.scale = 0.05;
        cfg.tm = api::retconConfig();
        ApiRun ref = runApi(cfg, std::string(workload) + "_s1_b1");
        for (unsigned shards : {1u, 4u}) {
            for (unsigned banks : {1u, 4u}) {
                if (shards == 1 && banks == 1)
                    continue;
                cfg.shards = shards;
                cfg.memBanks = banks;
                std::string tag = std::string(workload) + "_s" +
                                  std::to_string(shards) + "_b" +
                                  std::to_string(banks);
                ApiRun run = runApi(cfg, tag);
                SCOPED_TRACE(tag);
                EXPECT_EQ(fingerprint(run.r, false),
                          fingerprint(ref.r, false))
                    << "RunResult fingerprint diverged";
                EXPECT_TRUE(sameTrace(run.trace, ref.trace))
                    << "captured trace diverged";
            }
        }
    }
}

TEST(ShardedExec, PartitionsClustersAndSchedulingAuditClean)
{
    // The remaining axes: service partitions, modeled contention
    // (bandwidth, bank occupancy, commit tokens) and the
    // contention-aware scheduler must audit clean and reproduce
    // themselves; a 2-cluster fleet with cross-cluster routing must
    // additionally be shard-count transparent.
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.tm.commitTokenArbitration = true;
    cfg.shards = 4;
    cfg.shardBandwidth = 1;
    cfg.memBanks = 4;
    cfg.memBankOccupancy = 8;
    cfg.servicePartitions = 4;
    cfg.contentionSched = true;
    ApiRun part = runApi(cfg, "svc_part");
    EXPECT_GT(part.r.machineStats.tokenWaits, 0u);
    ApiRun again = runApi(cfg, "svc_part_again");
    EXPECT_EQ(fingerprint(again.r), fingerprint(part.r));
    EXPECT_TRUE(sameTrace(again.trace, part.trace));

    api::RunConfig fcfg;
    fcfg.workload = "service";
    fcfg.nthreads = 4;
    fcfg.scale = 0.05;
    fcfg.tm = api::retconConfig();
    fcfg.shards = 1;
    fcfg.memBanks = 2;
    fcfg.clusters = 2;
    fcfg.crossClusterFraction = 0.1;
    ApiRun fref = runApi(fcfg, "svc_fleet_s1");
    EXPECT_GT(fref.r.net.messages, 0u);
    fcfg.shards = 2;
    ApiRun fleet = runApi(fcfg, "svc_fleet_s2");
    EXPECT_EQ(fingerprint(fleet.r, false), fingerprint(fref.r, false));
    EXPECT_TRUE(sameTrace(fleet.trace, fref.trace));
}

TEST(ShardedExec, RepeatedRunsIdentical)
{
    // Twenty in-process runs of one config: any state leaking between
    // runs (a static cache, an allocator cursor) shows up as drift.
    // Fingerprints AND traces must all be identical.
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.shards = 4;
    cfg.memBanks = 4;
    ApiRun first = runApi(cfg, "det_0");
    for (int i = 1; i < 20; ++i) {
        ApiRun rep = runApi(cfg, "det_" + std::to_string(i));
        ASSERT_EQ(fingerprint(rep.r), fingerprint(first.r)) << "run " << i;
        ASSERT_TRUE(sameTrace(rep.trace, first.trace)) << "run " << i;
    }

    ShardedRun counter = runSharded(4, 0, /*bandwidth=*/1);
    for (int i = 1; i < 20; ++i) {
        ShardedRun rep = runSharded(4, 0, /*bandwidth=*/1);
        ASSERT_EQ(rep.cycles, counter.cycles) << "run " << i;
        ASSERT_TRUE(sameTrace(rep.records, counter.records))
            << "run " << i;
        ASSERT_EQ(rep.report.mismatches, 0u) << "run " << i;
    }
}

TEST(ShardedExec, ServiceWorkloadStateIdenticalAcrossShardCounts)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    api::RunResult one = api::runOnce(cfg);
    EXPECT_TRUE(one.validation.ok) << one.validation.note;
    for (unsigned n : {2u, 4u}) {
        cfg.shards = n;
        api::RunResult r = api::runOnce(cfg);
        EXPECT_TRUE(r.validation.ok) << r.validation.note;
        EXPECT_EQ(r.cycles, one.cycles) << n << " shards";
        EXPECT_EQ(r.coreStats.commits, one.coreStats.commits);
        EXPECT_EQ(r.coreStats.aborts, one.coreStats.aborts);
    }
}

TEST(ShardedExec, BandwidthModelChangesTimingButPreservesCorrectness)
{
    ShardedRun free = runSharded(4);
    ShardedRun limited = runSharded(4, 0, /*bandwidth=*/1);
    // Dispatch serialization slows the run but every invariant holds.
    EXPECT_GT(limited.cycles, free.cycles);
    EXPECT_EQ(limited.counter, Word(kThreads * kIters));
    EXPECT_EQ(limited.report.mismatches, 0u);
    EXPECT_EQ(limited.report.commitsChecked,
              std::uint64_t(kThreads * kIters));
}

// ---------------------------------------------------------------------
// Merged per-shard traces + the audit oracle at N > 1
// ---------------------------------------------------------------------

TEST(ShardedExec, MergedShardTracesPassReenactmentValidator)
{
    ShardedRun out = runSharded(4);
    EXPECT_EQ(out.report.mismatches, 0u) << out.report.summary();
    EXPECT_EQ(out.report.commitsChecked,
              std::uint64_t(kThreads * kIters));
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.muxRepairs, 0u);
}

TEST(ShardedExec, LiveCaptureMatchesTheStreamedFile)
{
    // One audited 4-shard run feeding both live sinks: the captured
    // vector and the .rtt file must hold the same complete stream.
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.shards = 4;
    cfg.trace.enabled = true;
    std::vector<trace::Record> captured;
    cfg.trace.captureInto = &captured;
    cfg.trace.streamPath = ::testing::TempDir() + "sharded_exec_live.rtt";
    api::RunResult r = api::runOnce(cfg);
    ASSERT_TRUE(r.reenact.ok()) << r.reenact.summary();

    query::LoadResult streamed = query::loadTraceFile(cfg.trace.streamPath);
    std::remove(cfg.trace.streamPath.c_str());
    ASSERT_TRUE(streamed.ok) << streamed.error;
    EXPECT_TRUE(sameTrace(captured, streamed.records));
    ASSERT_EQ(captured.size(), r.traceEvents);
    EXPECT_EQ(r.traceStream.records, r.traceEvents);
    // Every event exactly once, in strictly increasing machine order.
    for (std::size_t i = 1; i < captured.size(); ++i) {
        ASSERT_LT(captured[i - 1].seq, captured[i].seq) << "record " << i;
        ASSERT_LE(captured[i - 1].cycle, captured[i].cycle) << "record " << i;
    }
}

TEST(ShardedExec, ShardCountersCountOnlyTheirCoresRecords)
{
    // Recount a captured stream by home shard: each shard's lifetime
    // event counter must equal the records its own cores emitted.
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = 4;
    cfg.tm.mode = htm::TMMode::Retcon;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));
    trace::ShardMux mux(
        4, [&cluster](CoreId c) { return cluster.shardOf(c); });
    std::vector<trace::Record> records;
    trace::VectorSink capture(records);
    mux.addDownstream(&capture);
    cluster.setTraceSink(&mux);
    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    cluster.run();
    std::vector<std::uint64_t> recount(4, 0);
    for (const trace::Record &r : records)
        ++recount[cluster.shardOf(r.core)];
    for (unsigned s = 0; s < 4; ++s) {
        EXPECT_GT(recount[s], 0u) << "shard " << s;
        EXPECT_EQ(recount[s], mux.counters(s).events) << "shard " << s;
    }
}

TEST(ShardedExec, CorruptedRepairIsCaughtWithFourShards)
{
    // The negative control must survive sharding: a fault-injected
    // repair shows up as a mismatch in the merged audit stream.
    ShardedRun out = runSharded(4, /*fault_xor=*/0x10);
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::RepairValue);
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x10));
}

TEST(ShardedExec, CorruptedRepairIsCaughtUnderBandwidthAndStealing)
{
    ShardedRun out = runSharded(4, /*fault_xor=*/0x4, /*bandwidth=*/1);
    EXPECT_GT(out.report.mismatches, 0u);
}

// ---------------------------------------------------------------------
// DATM forwarding chains across shard boundaries
// ---------------------------------------------------------------------

TEST(ShardedExec, DatmForwardingChainsValidateAcrossShards)
{
    // Forward records resolve against the producer's logged store on
    // the *merged* live stream: a consumer on one shard must find the
    // producing store a different shard recorded, in global order.
    ShardedRun out = runSharded(4, 0, 0, htm::TMMode::DATM);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.forwardedCommitsChecked, 0u);
    EXPECT_EQ(out.report.forwardedCommitsSkipped, 0u);
    EXPECT_EQ(out.report.mismatches, 0u) << out.report.summary();
}

TEST(ShardedExec, DatmForwardingBitIdenticalAcrossShards)
{
    ShardedRun one = runSharded(1, 0, 0, htm::TMMode::DATM);
    ASSERT_GT(one.report.forwardsChecked, 0u);
    ASSERT_EQ(one.report.forwardedCommitsSkipped, 0u);
    ShardedRun four = runSharded(4, 0, 0, htm::TMMode::DATM);
    EXPECT_EQ(four.cycles, one.cycles);
    EXPECT_TRUE(sameTrace(four.records, one.records));
    EXPECT_EQ(four.report.forwardsChecked, one.report.forwardsChecked);
    EXPECT_EQ(four.report.forwardedCommitsSkipped, 0u);
    EXPECT_EQ(four.report.mismatches, 0u) << four.report.summary();
}

TEST(ShardedExec, DatmChainsActuallyCrossShardBoundaries)
{
    // The contended counter bounces between all 8 cores, which map
    // round-robin onto 4 shards: resolve each Forward record's
    // producer (via its TxBegin uid) and require at least one link
    // whose consumer and producer live on different shards.
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.numShards = 4;
    cfg.tm.mode = htm::TMMode::DATM;
    Cluster cluster(cfg);
    trace::ShardMux mux(
        4, [&cluster](CoreId c) { return cluster.shardOf(c); });
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    std::vector<trace::Record> records;
    trace::VectorSink capture(records);
    mux.addDownstream(&validator);
    mux.addDownstream(&capture);
    cluster.setTraceSink(&mux);
    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    cluster.run();

    std::unordered_map<std::uint64_t, CoreId> uid_core;
    std::uint64_t cross_shard = 0, forwards = 0;
    for (const trace::Record &r : records) {
        if (r.kind == trace::EventKind::TxBegin) {
            uid_core[r.b] = r.core;
        } else if (r.kind == trace::EventKind::Forward) {
            ++forwards;
            auto it = uid_core.find(r.b);
            ASSERT_NE(it, uid_core.end());
            if (cluster.shardOf(it->second) != cluster.shardOf(r.core))
                ++cross_shard;
        }
    }
    EXPECT_GT(forwards, 0u);
    EXPECT_GT(cross_shard, 0u);
    EXPECT_EQ(validator.report().mismatches, 0u)
        << validator.report().summary();
}

TEST(ShardedExec, CorruptedForwardIsCaughtWithFourShards)
{
    // The DATM negative control must survive sharding too: a
    // corrupted forwarded value shows up as a chain mismatch in the
    // merged audit stream.
    ShardedRun out = runSharded(4, 0, 0, htm::TMMode::DATM,
                                /*fwd_fault_xor=*/0x40);
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::ForwardValue);
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x40));
}
