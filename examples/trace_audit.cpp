/**
 * @file
 * Provenance & repair-audit demo: run the shared-counter workload
 * under RETCON with the trace subsystem attached, reenact every
 * repaired commit against architectural memory, and export the event
 * stream for offline analysis.
 *
 * Expected output: hundreds of repaired commits, every one re-derived
 * by the ReenactmentValidator with zero mismatches, followed by a
 * negative control where repairs are deliberately corrupted via
 * TMConfig::faultInjectRepairXor and the validator flags them.
 */

#include <cstdio>

#include "exec/cluster.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/reenact.hpp"

using namespace retcon;
using namespace retcon::exec;

namespace {

constexpr Addr kCounter = 0x1000;
constexpr int kIncrementsPerThread = 100;

Task<TxValue>
increment(Tx &tx)
{
    TxValue v = co_await tx.load(kCounter);
    v = tx.add(v, 1);
    co_await tx.store(kCounter, v);
    co_return v;
}

Task<void>
threadMain(WorkerCtx &ctx)
{
    for (int i = 0; i < kIncrementsPerThread; ++i) {
        co_await ctx.txn([](Tx &tx) { return increment(tx); });
        co_await ctx.work(50);
    }
    co_await ctx.barrier();
}

trace::ReenactReport
runAudited(Word fault_xor)
{
    ClusterConfig cfg;
    cfg.numThreads = 8;
    cfg.tm.mode = htm::TMMode::Retcon;
    cfg.tm.faultInjectRepairXor = fault_xor;
    Cluster cluster(cfg);
    cluster.machine().predictor().observeConflict(blockAddr(kCounter));

    trace::TraceRecorder recorder(1 << 14);
    trace::ReenactmentValidator validator(
        [&cluster](Addr a) { return cluster.memory().readWord(a); });
    trace::MultiSink sink;
    sink.add(&recorder);
    sink.add(&validator);
    cluster.setTraceSink(&sink);

    cluster.start([](WorkerCtx &ctx) { return threadMain(ctx); });
    Cycle cycles = cluster.run();

    std::printf("counter=%llu cycles=%llu events=%llu (%zu retained)\n",
                (unsigned long long)cluster.memory().readWord(kCounter),
                (unsigned long long)cycles,
                (unsigned long long)recorder.totalEvents(),
                recorder.size());
    std::printf("%s\n", validator.report().summary().c_str());
    for (const auto &m : validator.report().samples)
        std::printf("  %s\n", m.describe().c_str());

    if (fault_xor == 0) {
        std::size_t n =
            trace::exportJsonFile(recorder, "trace_audit.jsonl");
        std::printf("exported %zu events to trace_audit.jsonl\n", n);
    }
    return validator.report();
}

} // namespace

int
main()
{
    std::printf("== clean run: every repair must reenact exactly ==\n");
    trace::ReenactReport clean = runAudited(0);

    std::printf("\n== corrupted run: repairs XORed with 0x40, the "
                "oracle must object ==\n");
    trace::ReenactReport corrupt = runAudited(0x40);

    bool ok = clean.ok() && clean.repairsChecked > 0 && !corrupt.ok();
    std::printf("\naudit demo %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
