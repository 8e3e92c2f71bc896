/**
 * @file
 * Tests for the trace-query layer (src/query) and the what-if
 * reenactment engine (src/api/whatif): index surfaces on a recorded
 * contended-counter run, annotation anchoring, loader strictness on
 * corrupted input, offline replay, and the two what-if proofs — the
 * no-change bit-identity self-check and reach-frontier soundness
 * under a conflict-class knob change.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "api/whatif.hpp"
#include "exec/cluster.hpp"
#include "query/index.hpp"
#include "query/loader.hpp"
#include "query/replay.hpp"
#include "trace/export.hpp"
#include "trace/sink.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;
constexpr int kIters = 25;
constexpr unsigned kThreads = 8;
constexpr Word kPhaseMark = 7;

Task<TxValue>
incrementBody(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

/** Contended-counter run under RETCON, fully recorded. */
std::vector<trace::Record>
recordCounterRun(bool annotate = false)
{
    ClusterConfig cfg;
    cfg.numThreads = kThreads;
    cfg.tm.mode = htm::TMMode::Retcon;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));
    std::vector<trace::Record> recs;
    trace::VectorSink capture(recs);
    cluster.setTraceSink(&capture);
    cluster.start([annotate](WorkerCtx &ctx) -> Task<void> {
        if (annotate)
            ctx.annotate(kPhaseMark);
        for (int i = 0; i < kIters; ++i) {
            co_await ctx.txn([](Tx &tx) { return incrementBody(tx); });
            co_await ctx.work(20);
        }
        if (annotate)
            ctx.annotate(kPhaseMark + 1);
        co_await ctx.barrier();
    });
    cluster.run();
    EXPECT_EQ(cluster.memory().readWord(kCounter),
              Word{kThreads} * kIters);
    return recs;
}

/** Quick contended service base config for the what-if proofs. */
api::RunConfig
whatIfBase()
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 0.05;
    cfg.tm = api::retconConfig();
    cfg.annotatePhases = true;
    cfg.trace.enabled = true;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// TraceIndex surfaces on a recorded contended run
// ---------------------------------------------------------------------

TEST(QueryIndex, TimelineCoversTheContendedBlock)
{
    query::TraceIndex idx(recordCounterRun());
    auto tl = idx.blockTimeline(kCounter);
    ASSERT_FALSE(tl.empty());
    std::uint64_t prevSeq = 0;
    for (const query::TimelineEntry &e : tl) {
        const trace::Record &r = idx.records()[e.recordIdx];
        // Every entry touches (or blames) the counter's block, in
        // strictly ascending seq order.
        EXPECT_EQ(blockAddr(r.addr), blockAddr(kCounter));
        EXPECT_GT(r.seq, prevSeq);
        prevSeq = r.seq;
    }
    // All 200 increments flow through this one block: every repair in
    // the run lands on its timeline.
    query::TraceStats st = idx.stats();
    ASSERT_GT(st.repairs, 0u);
    std::uint64_t repairsOnBlock = 0;
    for (const query::TimelineEntry &e : tl)
        repairsOnBlock += idx.records()[e.recordIdx].kind ==
                          trace::EventKind::Repair;
    EXPECT_EQ(repairsOnBlock, st.repairs);
    EXPECT_FALSE(st.hotBlocks.empty());
    EXPECT_EQ(st.hotBlocks.front().first, blockAddr(kCounter));
}

TEST(QueryIndex, AttemptsPartitionTheStream)
{
    query::TraceIndex idx(recordCounterRun());
    query::TraceStats st = idx.stats();
    EXPECT_EQ(st.attempts, idx.attempts().size());
    EXPECT_EQ(st.commits, Word{kThreads} * kIters);
    for (const auto &[uid, at] : idx.attempts()) {
        EXPECT_EQ(at.uid, uid);
        EXPECT_FALSE(at.committed && at.aborted);
        EXPECT_FALSE(at.recordIdx.empty());
        if (at.committed || at.aborted) {
            EXPECT_GT(at.endSeq, at.beginSeq);
        }
        // attemptAtSeq maps the interval back to the attempt.
        EXPECT_EQ(idx.attemptAtSeq(at.beginSeq), uid);
    }
}

TEST(QueryIndex, BlameChainsNameTheKillerBlock)
{
    query::TraceIndex idx(recordCounterRun());
    std::size_t chained = 0;
    for (const auto &[uid, at] : idx.attempts()) {
        if (!at.aborted)
            continue;
        auto chain = idx.blameChain(uid);
        ASSERT_FALSE(chain.empty());
        EXPECT_EQ(chain.front().uid, uid);
        EXPECT_EQ(chain.front().cause, at.abortCause);
        if (at.blameBlock != 0) {
            EXPECT_EQ(chain.front().block, blockAddr(kCounter));
            ++chained;
        }
        // A non-aborted attempt has nothing to blame.
        if (chain.front().winnerUid != 0) {
            const query::Attempt *w = idx.attempt(chain.front().winnerUid);
            ASSERT_NE(w, nullptr);
            EXPECT_NE(w->uid, uid);
        }
    }
    // The contended counter aborts with the counter block to blame at
    // least once in 200 racing increments.
    EXPECT_GT(chained, 0u);
}

TEST(QueryIndex, CommitDiffReplaysTheRepairedIncrement)
{
    query::TraceIndex idx(recordCounterRun());
    std::size_t diffs = 0;
    for (const auto &[uid, at] : idx.attempts()) {
        if (!at.committed || at.repairs == 0)
            continue;
        auto d = idx.commitDiff(at.endSeq);
        ASSERT_TRUE(d.has_value());
        ASSERT_EQ(d->size(), at.repairs);
        for (const query::RepairDelta &delta : *d) {
            // The counter increment: before + 1, symbolically tagged.
            EXPECT_EQ(delta.word, wordAddr(kCounter));
            EXPECT_EQ(delta.after, delta.before + 1);
            EXPECT_TRUE(delta.symbolic);
            EXPECT_EQ(delta.sym.delta, 1);
        }
        ++diffs;
    }
    EXPECT_GT(diffs, 0u);
    // A seq outside every committed attempt has no diff.
    EXPECT_FALSE(idx.commitDiff(~std::uint64_t{0} - 1).has_value());
}

TEST(QueryIndex, AnnotationSpansAnchorAttempts)
{
    query::TraceIndex idx(recordCounterRun(/*annotate=*/true));

    // Hit: every core opened a kPhaseMark span and closed it at its
    // second mark.
    auto spans = idx.spansForMark(kPhaseMark);
    ASSERT_EQ(spans.size(), kThreads);
    for (const query::AnnotationSpan &s : spans)
        EXPECT_LT(s.startSeq, s.endSeq);
    // Every attempt began inside a kPhaseMark span (the second mark
    // fires after the loop, before the barrier).
    for (const auto &[uid, at] : idx.attempts()) {
        ASSERT_TRUE(at.annotation.has_value());
        EXPECT_EQ(*at.annotation, kPhaseMark);
    }
    // abortsUnderMark partitions exactly the aborted attempts.
    query::TraceStats st = idx.stats();
    EXPECT_EQ(idx.abortsUnderMark(kPhaseMark).size(), st.aborts);

    // Miss: an unknown mark matches nothing.
    EXPECT_TRUE(idx.spansForMark(0xDEAD).empty());
    EXPECT_TRUE(idx.abortsUnderMark(0xDEAD).empty());
}

TEST(QueryReplay, RecordedCounterRunReenactsOffline)
{
    std::vector<trace::Record> recs = recordCounterRun();
    query::ReplayResult rep = query::replayValidate(recs);
    EXPECT_TRUE(rep.report.ok()) << rep.report.summary();
    EXPECT_GT(rep.report.commitsChecked, 0u);
    EXPECT_GT(rep.report.repairsChecked, 0u);
    // The complete stream reveals every word before it is needed.
    EXPECT_EQ(rep.unknownReads, 0u);
}

// ---------------------------------------------------------------------
// Loader strictness: a corrupted trace must not load
// ---------------------------------------------------------------------

TEST(QueryLoader, RoundTripThenCorruptionIsRejected)
{
    std::vector<trace::Record> recs = recordCounterRun();
    std::ostringstream json;
    trace::exportJson(recs, json);

    // Baseline: the untouched export loads bit-identically.
    {
        std::istringstream in(json.str());
        query::LoadResult ok = query::loadJson(in);
        ASSERT_TRUE(ok.ok) << ok.error;
        ASSERT_EQ(ok.records.size(), recs.size());
        for (std::size_t i = 0; i < recs.size(); ++i)
            ASSERT_TRUE(
                trace::recordsIdentical(ok.records[i], recs[i]));
    }

    // Unknown kind name.
    {
        std::string bad = json.str();
        std::size_t p = bad.find("\"kind\":\"commit\"");
        ASSERT_NE(p, std::string::npos);
        bad.replace(p, 15, "\"kind\":\"commot\"");
        std::istringstream in(bad);
        query::LoadResult r = query::loadJson(in);
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("unknown kind"), std::string::npos);
    }

    // Seq-order violation (a duplicated line).
    {
        std::string s = json.str();
        std::size_t firstNl = s.find('\n');
        ASSERT_NE(firstNl, std::string::npos);
        std::string dup = s.substr(0, firstNl + 1);
        std::istringstream in(dup + dup);
        query::LoadResult r = query::loadJson(in);
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("seq order"), std::string::npos);
    }

    // Truncated line (not a JSON object anymore).
    {
        std::string s = json.str();
        std::istringstream in(s.substr(0, s.find('\n') - 3));
        query::LoadResult r = query::loadJson(in);
        EXPECT_FALSE(r.ok);
    }

    // A malformed line fails with its line number.
    {
        std::string bad = json.str();
        bad.insert(bad.find('\n') + 1, "{not a record}\n");
        std::istringstream in(bad);
        query::LoadResult r = query::loadJson(in);
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("line 2"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// What-if reenactment
// ---------------------------------------------------------------------

TEST(WhatIf, NoChangeIsBitIdenticalAndReachHolds)
{
    api::WhatIfResult w = api::runWhatIf(whatIfBase(), {});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Nothing);
    EXPECT_EQ(w.firstReachableSeq, trace::kSeqUnreached);
    EXPECT_TRUE(w.bitIdentical);
    EXPECT_FALSE(w.diverged);
    EXPECT_TRUE(w.reachHeld);
    EXPECT_TRUE(w.blockDeltas.empty());
    // The variant is the recorded stream, and it reenacts.
    ASSERT_EQ(w.variant.size(), w.recorded.size());
    EXPECT_TRUE(w.reenact.report.ok()) << w.reenact.report.summary();
    EXPECT_TRUE(w.passed());
}

TEST(WhatIf, ConflictKnobDivergesAtOrAfterTheFrontier)
{
    api::WhatIfResult w =
        api::runWhatIf(whatIfBase(), {{"backoff", "exp"}});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Conflicts);
    // The contended service recording must have a frontier, else the
    // soundness claim below is vacuous.
    ASSERT_NE(w.firstReachableSeq, trace::kSeqUnreached);
    EXPECT_GT(w.firstReachableSeq, w.recorded.front().seq);
    EXPECT_LE(w.firstReachableSeq, w.recorded.back().seq);
    // Reach soundness: backoff only acts where attempts interact, so
    // nothing before the first-interaction frontier may move.
    EXPECT_TRUE(w.reachHeld);
    if (w.diverged) {
        EXPECT_GE(w.firstDivergentSeq, w.firstReachableSeq);
    }
    // The variant stream is a coherent history.
    EXPECT_TRUE(w.reenact.report.ok()) << w.reenact.report.summary();
    // Both runs were real, audited runs.
    EXPECT_TRUE(w.baseResult.validation.ok);
    EXPECT_TRUE(w.variantResult.validation.ok);
    EXPECT_TRUE(w.baseResult.reenact.ok());
    EXPECT_TRUE(w.variantResult.reenact.ok());
}

TEST(WhatIf, ComparesTheWholeStreamPastTheOldRingSize)
{
    // The retcon-query whatif defaults at a scale whose runs emit far
    // more records than one 65,536-record ring holds: the engine must
    // compare both complete streams from the run's first record.
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = 8;
    cfg.scale = 1.3;
    cfg.trace.enabled = true;
    api::WhatIfResult w = api::runWhatIf(cfg, {{"backoff", "linear"}});
    ASSERT_TRUE(w.ok) << w.error;
    ASSERT_GT(w.baseResult.traceEvents, std::uint64_t{1} << 16);
    EXPECT_EQ(w.recorded.size(), w.baseResult.traceEvents);
    EXPECT_EQ(w.variant.size(), w.variantResult.traceEvents);
    EXPECT_TRUE(w.reachHeld);
    ASSERT_FALSE(w.recorded.empty());
    EXPECT_EQ(w.recorded.front().seq, 1u); // The machine's first seq.
}

TEST(WhatIf, EverythingClassKnobReachesTheWholeStream)
{
    api::WhatIfResult w =
        api::runWhatIf(whatIfBase(), {{"seed", "2"}});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Everything);
    // Everything is reachable from the first record...
    EXPECT_EQ(w.firstReachableSeq, w.recorded.front().seq);
    EXPECT_TRUE(w.reachHeld);
    // ...and a different seed genuinely diverges.
    EXPECT_TRUE(w.diverged);
    EXPECT_GE(w.firstDivergentSeq, w.recorded.front().seq);
    EXPECT_TRUE(w.reenact.report.ok()) << w.reenact.report.summary();
}

TEST(WhatIf, MisclassifiedKnobFailsTheReachCheck)
{
    // memBanks is classed Nothing because bank count is transparent
    // while bank occupancy is unmodeled. With occupancy modeled, the
    // bank count changes timing, so the class is wrong for this base
    // and the reach check must say so — the negative control.
    api::RunConfig base = whatIfBase();
    base.memBankOccupancy = 8;
    api::WhatIfResult w = api::runWhatIf(base, {{"memBanks", "4"}});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_EQ(w.reach, api::ReachClass::Nothing);
    EXPECT_TRUE(w.diverged);
    EXPECT_FALSE(w.reachHeld);
}

TEST(WhatIf, VariantThatFailsValidationFailsTheReport)
{
    // An in-range bank occupancy that holds a bank for 65,535 cycles
    // per request cannot finish inside a cycle budget the base run
    // fits in easily. The variant stops short and fails its workload
    // validation, and the report must fail with it.
    api::RunConfig base = whatIfBase();
    base.maxCycles = 4 * api::runOnce(base).cycles;
    api::WhatIfResult w =
        api::runWhatIf(base, {{"memBankOccupancy", "65535"}});
    ASSERT_TRUE(w.ok) << w.error;
    EXPECT_TRUE(w.baseResult.validation.ok);
    EXPECT_FALSE(w.variantResult.validation.ok);
    EXPECT_FALSE(w.passed());

    // One past the knob's range is rejected before anything runs.
    w = api::runWhatIf(base, {{"memBankOccupancy", "65536"}});
    EXPECT_FALSE(w.ok);
    EXPECT_NE(w.error.find("memBankOccupancy"), std::string::npos);
}

TEST(WhatIf, BadKnobIsRejected)
{
    api::WhatIfResult w =
        api::runWhatIf(whatIfBase(), {{"warp-factor", "9"}});
    EXPECT_FALSE(w.ok);
    EXPECT_NE(w.error.find("warp-factor"), std::string::npos);

    // Out of the knob's range: rejected before anything runs.
    w = api::runWhatIf(whatIfBase(), {{"shards", "100"}});
    EXPECT_FALSE(w.ok);
    EXPECT_NE(w.error.find("shards"), std::string::npos) << w.error;

    api::RunConfig cfg;
    EXPECT_FALSE(api::applyKnob(cfg, "backoff", "sideways"));
    EXPECT_FALSE(api::applyKnob(cfg, "nthreads", "0"));
    EXPECT_TRUE(api::applyKnob(cfg, "backoff", "exp"));
    EXPECT_EQ(cfg.tm.backoff.policy, htm::BackoffPolicy::ExpCapped);
}
