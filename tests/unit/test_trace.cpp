/**
 * @file
 * Tests for the provenance & repair-audit subsystem (src/trace):
 * ring-buffer wraparound, the disabled-sink fast path (identical
 * simulated timing with tracing on/off), reenactment agreement on the
 * contended shared-counter workload in every TM mode, detection of
 * deliberately corrupted repairs, and the exporters.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exec/cluster.hpp"
#include "query/loader.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/reenact.hpp"

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

/** Branches on the symbolic counter so constraints get recorded. */
Task<TxValue>
boundedIncrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    if (tx.cmp(v, rtc::CmpOp::LT, 1'000'000))
        v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

Task<void>
threadMain(WorkerCtx &ctx, bool bounded)
{
    for (int i = 0; i < kIters; ++i) {
        if (bounded) {
            co_await ctx.txn(
                [](Tx &tx) { return boundedIncrementBody(tx); });
        } else {
            co_await ctx.txn(
                [](Tx &tx) { return incrementBody(tx); });
        }
        co_await ctx.work(20);
    }
    co_await ctx.barrier();
}

struct RunOutput {
    Cycle cycles = 0;
    Word counter = 0;
    trace::ReenactReport report;
    std::uint64_t events = 0;
};

RunOutput
runCounter(htm::TMMode mode, bool traced, Word fault_xor = 0,
           bool bounded = false, trace::TraceRecorder *ring = nullptr,
           Word fwd_fault_xor = 0)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.tm.mode = mode;
    cfg.tm.faultInjectRepairXor = fault_xor;
    cfg.tm.faultInjectForwardXor = fwd_fault_xor;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));

    trace::MultiSink sink;
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    if (traced) {
        sink.add(&validator);
        if (ring)
            sink.add(ring);
        cluster.setTraceSink(&sink);
    }

    cluster.start([bounded](WorkerCtx &ctx) {
        return threadMain(ctx, bounded);
    });
    RunOutput out;
    out.cycles = cluster.run();
    out.counter = cluster.memory().readWord(kCounter);
    out.report = validator.report();
    if (ring)
        out.events = ring->totalEvents();
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------

TEST(TraceRecorder, RetainsEverythingBelowCapacity)
{
    trace::TraceRecorder rec(8);
    for (Word i = 0; i < 5; ++i)
        rec.onEvent(trace::Record{i, 0, trace::EventKind::UserMark, 0, i,
                                  0, {}, false, rtc::CmpOp::EQ, 0});
    EXPECT_EQ(rec.size(), 5u);
    EXPECT_EQ(rec.totalEvents(), 5u);
    EXPECT_EQ(rec.dropped(), 0u);
    auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (Word i = 0; i < 5; ++i)
        EXPECT_EQ(snap[i].a, i);
}

TEST(TraceRecorder, WraparoundKeepsNewestInOrder)
{
    trace::TraceRecorder rec(4);
    for (Word i = 0; i < 11; ++i)
        rec.onEvent(trace::Record{i, 0, trace::EventKind::UserMark, 0, i,
                                  0, {}, false, rtc::CmpOp::EQ, 0});
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.totalEvents(), 11u);
    EXPECT_EQ(rec.dropped(), 7u);
    auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // The newest 4 records (7,8,9,10), oldest first.
    for (Word i = 0; i < 4; ++i)
        EXPECT_EQ(snap[i].a, 7 + i);
}

TEST(TraceRecorder, ClearResetsButKeepsCapacity)
{
    trace::TraceRecorder rec(4);
    for (Word i = 0; i < 6; ++i)
        rec.onEvent(trace::Record{});
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.totalEvents(), 0u);
    EXPECT_EQ(rec.capacity(), 4u);
    rec.onEvent(trace::Record{});
    EXPECT_EQ(rec.size(), 1u);
}

// ---------------------------------------------------------------------
// Disabled fast path
// ---------------------------------------------------------------------

TEST(TraceDisabled, TimingIdenticalWithAndWithoutSink)
{
    // Tracing must observe, never perturb: the deterministic simulation
    // must produce cycle-identical runs with the sink on and off.
    for (htm::TMMode mode :
         {htm::TMMode::Eager, htm::TMMode::Retcon, htm::TMMode::Lazy}) {
        RunOutput off = runCounter(mode, false);
        RunOutput on = runCounter(mode, true);
        EXPECT_EQ(off.cycles, on.cycles) << htm::tmModeName(mode);
        EXPECT_EQ(off.counter, on.counter) << htm::tmModeName(mode);
    }
}

TEST(TraceDisabled, NoSinkReportsNothing)
{
    RunOutput off = runCounter(htm::TMMode::Retcon, false);
    EXPECT_EQ(off.counter, Word(kThreads * kIters));
    EXPECT_EQ(off.report.commitsChecked, 0u);
    EXPECT_EQ(off.report.repairsChecked, 0u);
}

// ---------------------------------------------------------------------
// Reenactment agreement
// ---------------------------------------------------------------------

TEST(Reenactment, SharedCounterAgreesInEveryMode)
{
    for (htm::TMMode mode :
         {htm::TMMode::Serial, htm::TMMode::Eager, htm::TMMode::Lazy,
          htm::TMMode::LazyVB, htm::TMMode::Retcon, htm::TMMode::DATM}) {
        RunOutput out = runCounter(mode, true);
        EXPECT_EQ(out.counter, Word(kThreads * kIters))
            << htm::tmModeName(mode);
        EXPECT_EQ(out.report.mismatches, 0u) << htm::tmModeName(mode);
        EXPECT_EQ(out.report.commitsChecked,
                  std::uint64_t(kThreads * kIters))
            << htm::tmModeName(mode);
    }
}

TEST(Reenactment, RetconRepairsAreChecked)
{
    RunOutput out = runCounter(htm::TMMode::Retcon, true);
    // Contended symbolic counter: commits must actually repair.
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_EQ(out.report.mismatches, 0u);
}

TEST(Reenactment, LazyVbPinsAreChecked)
{
    // lazy-vb degrades every tracked word to value validation: the
    // audit must re-verify those equality pins at commit.
    RunOutput out = runCounter(htm::TMMode::LazyVB, true);
    EXPECT_GT(out.report.pinsChecked, 0u);
    EXPECT_EQ(out.report.mismatches, 0u);
}

TEST(Reenactment, BranchConstraintsAreReplayed)
{
    RunOutput out =
        runCounter(htm::TMMode::Retcon, true, 0, /*bounded=*/true);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    EXPECT_GT(out.report.constraintsChecked, 0u);
    EXPECT_EQ(out.report.mismatches, 0u);
}

TEST(Reenactment, CorruptedRepairIsFlagged)
{
    // Fault-inject a bit flip into every repaired commit store: the
    // machine happily commits, so only the reenactment oracle stands
    // between the bug and silently corrupted committed state.
    RunOutput out = runCounter(htm::TMMode::Retcon, true, /*xor=*/0x10);
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::RepairValue);
    // expected ^ got must show exactly the injected fault.
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x10));
}

TEST(Reenactment, CorruptedLazyDrainIsFlagged)
{
    // The lazy write-buffer drain is also a commit-time repair path;
    // fault injection must be observable by the oracle there too.
    RunOutput out = runCounter(htm::TMMode::Lazy, true, /*xor=*/0x4);
    EXPECT_GT(out.report.repairsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

TEST(TraceExport, JsonCoversAllRetainedRecords)
{
    trace::TraceRecorder ring(1 << 12);
    RunOutput out =
        runCounter(htm::TMMode::Retcon, true, 0, false, &ring);
    ASSERT_GT(out.events, 0u);

    std::ostringstream json;
    std::size_t njson = trace::exportJson(ring, json);
    EXPECT_EQ(njson, ring.size());
    // One JSON object per line.
    std::size_t lines = 0;
    for (char c : json.str())
        lines += c == '\n';
    EXPECT_EQ(lines, njson);
    EXPECT_NE(json.str().find("\"kind\":\"repair\""), std::string::npos);
    EXPECT_NE(json.str().find("\"sym\":{\"root\":"), std::string::npos);
    // The machine-global merge key is exported.
    EXPECT_NE(json.str().find("\"seq\":"), std::string::npos);
}

TEST(TraceExport, AnnotationMarksRoundTripThroughJson)
{
    // WorkerCtx::annotate stamps a UserMark record into the stream;
    // the JSON export must surface the mark id in a dedicated
    // `annotation` field so consumers can correlate workload phases
    // with machine events (docs/trace-format.md).
    ClusterConfig cfg;
    cfg.numThreads = 2;
    trace::TraceRecorder ring(1 << 10);
    Cluster cluster(cfg);
    cluster.setTraceSink(&ring);
    cluster.start([](WorkerCtx &ctx) -> Task<void> {
        ctx.annotate(0xBEE5 + ctx.tid());
        co_await ctx.txn([](Tx &tx) { return incrementBody(tx); });
        ctx.annotate(0xD0CE);
        co_await ctx.barrier();
    });
    cluster.run();

    std::uint64_t marks = 0;
    ring.forEach([&](const trace::Record &r) {
        marks += r.kind == trace::EventKind::UserMark;
    });
    EXPECT_EQ(marks, 4u); // Two per thread.

    std::ostringstream json;
    trace::exportJson(ring, json);
    EXPECT_NE(json.str().find("\"kind\":\"mark\""), std::string::npos);
    EXPECT_NE(json.str().find("\"annotation\":" +
                              std::to_string(0xBEE5)),
              std::string::npos);
    EXPECT_NE(json.str().find("\"annotation\":" +
                              std::to_string(0xD0CE)),
              std::string::npos);
    // Non-mark records must not carry the field.
    EXPECT_EQ(json.str().find("\"kind\":\"commit\",\"annotation\""),
              std::string::npos);
}

TEST(TraceExport, AnnotatedRunRoundTripsThroughJson)
{
    // The JSON export must parse back (query::loadJson) into the
    // exact records it came from, mark records included — the loader
    // is the query CLI's input path, so a lossy round trip would
    // silently corrupt every downstream query.
    ClusterConfig cfg;
    cfg.numThreads = 2;
    trace::TraceRecorder ring(1 << 10);
    Cluster cluster(cfg);
    cluster.setTraceSink(&ring);
    cluster.start([](WorkerCtx &ctx) -> Task<void> {
        ctx.annotate(0xFACE);
        co_await ctx.txn([](Tx &tx) { return incrementBody(tx); });
        co_await ctx.barrier();
    });
    cluster.run();

    std::vector<trace::Record> original;
    ring.forEach([&](const trace::Record &r) { original.push_back(r); });

    std::ostringstream json;
    trace::exportJson(ring, json);
    std::istringstream jsonIn(json.str());
    query::LoadResult fromJson = query::loadJson(jsonIn);
    ASSERT_TRUE(fromJson.ok) << fromJson.error;
    ASSERT_EQ(fromJson.records.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_TRUE(
            trace::recordsIdentical(fromJson.records[i], original[i]))
            << "JSON line " << i;
}

// ---------------------------------------------------------------------
// DATM forwarding visibility
// ---------------------------------------------------------------------

TEST(TraceDatm, ForwardedCommitsCarryTheDatmForwardedFlag)
{
    // Every commit that consumed forwarded data is flagged, and every
    // flagged commit's chain is re-derived by the validator (the
    // Forward records name the producing attempt + store).
    trace::TraceRecorder ring(1 << 14);
    RunOutput out =
        runCounter(htm::TMMode::DATM, true, 0, false, &ring);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    std::uint64_t commits = 0, flagged = 0;
    ring.forEach([&](const trace::Record &r) {
        if (r.kind != trace::EventKind::Commit)
            return;
        ++commits;
        if (r.aux & trace::kCommitAuxDatmForwarded)
            ++flagged;
    });
    EXPECT_EQ(commits, std::uint64_t(kThreads * kIters));
    // The contended counter forwards constantly under DATM.
    EXPECT_GT(flagged, 0u);
    EXPECT_LT(flagged, commits); // Uncontended commits stay unflagged.
    // The flag and the validator agree commit by commit.
    EXPECT_EQ(out.report.forwardedCommitsChecked, flagged);
    EXPECT_EQ(out.report.forwardedCommitsSkipped, 0u);

    // And the flag round-trips through the JSON export.
    std::ostringstream json;
    trace::exportJson(ring, json);
    EXPECT_NE(json.str().find("\"datm_forwarded\":true"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"datm_forwarded\":false"),
              std::string::npos);
}

TEST(TraceDatm, ForwardingChainsAreReDerived)
{
    // The tentpole guarantee: zero chains skipped, every forwarded
    // read resolved against the producer's logged store — the audit
    // is no longer "sound except on the interesting path".
    RunOutput out = runCounter(htm::TMMode::DATM, true);
    EXPECT_EQ(out.counter, Word(kThreads * kIters));
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.forwardedCommitsChecked, 0u);
    EXPECT_EQ(out.report.forwardedCommitsSkipped, 0u);
    EXPECT_EQ(out.report.mismatches, 0u) << out.report.summary();
}

TEST(TraceDatm, ForwardRecordsNameProducerAndValueId)
{
    trace::TraceRecorder ring(1 << 14);
    runCounter(htm::TMMode::DATM, true, 0, false, &ring);
    std::uint64_t forwards = 0;
    ring.forEach([&](const trace::Record &r) {
        if (r.kind != trace::EventKind::Forward)
            return;
        ++forwards;
        EXPECT_NE(r.b, 0u);   // Producer attempt uid.
        EXPECT_NE(r.vid, 0u); // Producing store's write seq.
        EXPECT_EQ(r.addr % kWordBytes, 0u);
    });
    EXPECT_GT(forwards, 0u);

    // Forward records round-trip through the JSON export.
    std::ostringstream json;
    trace::exportJson(ring, json);
    EXPECT_NE(json.str().find("\"kind\":\"forward\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"producer_uid\":"), std::string::npos);
    EXPECT_NE(json.str().find("\"vid\":"), std::string::npos);
}

TEST(TraceDatm, CorruptedForwardedValueIsFlagged)
{
    // Fault-inject a bit flip into every forwarded value as it is
    // delivered (architectural memory keeps the producer's real
    // value). The machine commits regardless; only the chain
    // re-derivation stands between the bug and silently wrong
    // committed state. Do not assert the final counter here — the
    // injected corruption really does poison the computed sums.
    RunOutput out = runCounter(htm::TMMode::DATM, true, 0, false,
                               nullptr, /*fwd_xor=*/0x20);
    EXPECT_GT(out.report.forwardsChecked, 0u);
    EXPECT_GT(out.report.mismatches, 0u);
    ASSERT_FALSE(out.report.samples.empty());
    EXPECT_EQ(out.report.samples[0].what,
              trace::Mismatch::What::ForwardValue);
    // expected ^ got must show exactly the injected fault.
    EXPECT_EQ(out.report.samples[0].expected ^ out.report.samples[0].got,
              Word(0x20));
}

TEST(TraceDatm, CleanModesNeverRecordForwards)
{
    for (htm::TMMode mode :
         {htm::TMMode::Eager, htm::TMMode::Lazy, htm::TMMode::Retcon}) {
        RunOutput out = runCounter(mode, true);
        EXPECT_EQ(out.report.forwardsChecked, 0u)
            << htm::tmModeName(mode);
        EXPECT_EQ(out.report.forwardedCommitsChecked, 0u)
            << htm::tmModeName(mode);
    }
}

// ---------------------------------------------------------------------
// Validator protocol checks on synthetic streams
//
// The machine enforces DATM commit order, so the broken interleavings
// below can only be produced by a buggy machine — which is precisely
// what the audit exists to catch. Feed the validator hand-crafted
// record streams and pin each verdict.
// ---------------------------------------------------------------------

namespace {

trace::Record
rec(trace::EventKind kind, CoreId core, Addr addr = 0, Word a = 0,
    Word b = 0, std::uint8_t aux = 0, std::uint64_t vid = 0)
{
    static std::uint64_t seq = 1;
    trace::Record r;
    r.kind = kind;
    r.core = core;
    r.addr = addr;
    r.a = a;
    r.b = b;
    r.aux = aux;
    r.vid = vid;
    r.seq = seq++;
    return r;
}

trace::ReenactmentValidator
makeValidator()
{
    return trace::ReenactmentValidator([](Addr) { return Word(0); });
}

} // namespace

TEST(TraceDatmProtocol, CleanHandoffValidates)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, /*uid=*/101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, /*uid=*/102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Commit, 0)); // Producer first.
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().mismatches, 0u) << v.report().summary();
    EXPECT_EQ(v.report().forwardsChecked, 1u);
    EXPECT_EQ(v.report().forwardedCommitsChecked, 1u);
    EXPECT_EQ(v.report().forwardedCommitsSkipped, 0u);
}

TEST(TraceDatmProtocol, ConsumerCommitBeforeProducerResolvesIsFlagged)
{
    // The consumer commits while its producer is still in flight:
    // DATM commit order violated, whatever the producer does later.
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().mismatches, 1u);
    ASSERT_FALSE(v.report().samples.empty());
    EXPECT_EQ(v.report().samples[0].what,
              trace::Mismatch::What::ForwardChain);
}

TEST(TraceDatmProtocol, ProducerAbortPoisonsConsumersLinks)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Abort, 0)); // Producer dies...
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded)); // ...consumer not.
    EXPECT_EQ(v.report().mismatches, 1u);
    ASSERT_FALSE(v.report().samples.empty());
    EXPECT_EQ(v.report().samples[0].what,
              trace::Mismatch::What::ForwardChain);
}

TEST(TraceDatmProtocol, ValueIdMismatchBreaksTheChain)
{
    // The Forward names a store the producer's log does not hold
    // (wrong vid): the machine forwarded a value with no matching
    // provenance.
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 12));
    v.onEvent(rec(trace::EventKind::Commit, 0));
    v.onEvent(rec(trace::EventKind::Commit, 1, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().mismatches, 1u);
    ASSERT_FALSE(v.report().samples.empty());
    EXPECT_EQ(v.report().samples[0].what,
              trace::Mismatch::What::ForwardChain);
}

TEST(TraceDatmProtocol, FlaggedCommitWithoutLinksCountsAsSkipped)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Commit, 0, 0, 0, 0,
                  trace::kCommitAuxDatmForwarded));
    EXPECT_EQ(v.report().forwardedCommitsSkipped, 1u);
    EXPECT_EQ(v.report().mismatches, 1u);
}

TEST(TraceDatmProtocol, LinksWithoutTheCommitFlagAreFlagged)
{
    auto v = makeValidator();
    v.onEvent(rec(trace::EventKind::TxBegin, 0, 0, 1, 101));
    v.onEvent(rec(trace::EventKind::Store, 0, 0x100, 7, 7, 0, 11));
    v.onEvent(rec(trace::EventKind::TxBegin, 1, 0, 2, 102));
    v.onEvent(rec(trace::EventKind::Forward, 1, 0x100, 7, 101, 0, 11));
    v.onEvent(rec(trace::EventKind::Commit, 0));
    v.onEvent(rec(trace::EventKind::Commit, 1)); // Flag lost.
    EXPECT_EQ(v.report().mismatches, 1u);
    // The links are still scored after the structural flag.
    EXPECT_EQ(v.report().forwardsChecked, 1u);
}

TEST(TraceDatm, NonDatmCommitsNeverCarryTheFlag)
{
    trace::TraceRecorder ring(1 << 14);
    runCounter(htm::TMMode::Retcon, true, 0, false, &ring);
    ring.forEach([&](const trace::Record &r) {
        if (r.kind == trace::EventKind::Commit) {
            EXPECT_EQ(r.aux & trace::kCommitAuxDatmForwarded, 0);
        }
    });
}
