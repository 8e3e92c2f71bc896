/**
 * @file
 * google-benchmark microbenchmarks of the RETCON structures that have
 * no twin in perf/: interval constraint recording, IVB/SSB operations,
 * constraint-buffer checks and predictor queries. The event queue and
 * the memory system are measured in place by perf/
 * (sim.queue_ns_per_event, mem.access_ns).
 */

#include <benchmark/benchmark.h>

#include "retcon/constraint_buffer.hpp"
#include "retcon/ivb.hpp"
#include "retcon/predictor.hpp"
#include "retcon/ssb.hpp"
#include "sim/random.hpp"

using namespace retcon;

static void
BM_IntervalConstrain(benchmark::State &state)
{
    Xoshiro rng(11);
    for (auto _ : state) {
        rtc::Interval iv;
        for (int i = 0; i < 8; ++i)
            iv.constrain(static_cast<rtc::CmpOp>(rng.below(6)),
                         static_cast<std::int64_t>(rng.below(100)));
        benchmark::DoNotOptimize(iv.contains(50));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_IntervalConstrain);

static void
BM_IvbAllocateFind(benchmark::State &state)
{
    std::array<Word, kWordsPerBlock> words{};
    for (auto _ : state) {
        rtc::InitialValueBuffer ivb(16);
        for (Addr b = 0; b < 16; ++b)
            ivb.allocate(b * kBlockBytes, words);
        for (Addr b = 0; b < 16; ++b)
            benchmark::DoNotOptimize(ivb.find(b * kBlockBytes));
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_IvbAllocateFind);

static void
BM_SsbPutForward(benchmark::State &state)
{
    for (auto _ : state) {
        rtc::SymbolicStoreBuffer ssb(32);
        for (Addr w = 0; w < 32; ++w)
            ssb.put(w * 8, w, rtc::SymTag{0x1000, 1, 8}, 8);
        for (Addr w = 0; w < 32; ++w)
            benchmark::DoNotOptimize(ssb.find(w * 8));
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SsbPutForward);

// ---------------------------------------------------------------------
// Grown-structure lookups (unlimitedState sizing). These pin the win
// from the small-map indices that replaced the linear scans: at
// Table 1 sizes (16/32 entries) either is fine, but idealized-RETCON
// runs grow the buffers far past that and made find()/invalidate()
// the host-side hot path (ROADMAP perf item, closed in PR 4).
// ---------------------------------------------------------------------

static void
BM_IvbFindGrown(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::array<Word, kWordsPerBlock> words{};
    rtc::InitialValueBuffer ivb(SIZE_MAX);
    for (Addr b = 0; b < n; ++b)
        ivb.allocate(b * kBlockBytes, words);
    Xoshiro rng(17);
    for (auto _ : state) {
        // Mix of hits and misses, like the txLoad fast path.
        Addr b = rng.below(2 * n) * kBlockBytes;
        benchmark::DoNotOptimize(ivb.find(b));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IvbFindGrown)->Arg(16)->Arg(256)->Arg(1024);

static void
BM_SsbInvalidateMiss(benchmark::State &state)
{
    // Every RETCON eager store probes the SSB for an entry to drop;
    // almost all probes miss. The index makes the miss O(1).
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    rtc::SymbolicStoreBuffer ssb(SIZE_MAX);
    for (Addr w = 0; w < n; ++w)
        ssb.put(w * 8, w, rtc::SymTag{0x1000, 1, 8}, 8);
    Xoshiro rng(19);
    for (auto _ : state) {
        Addr miss = (n + rng.below(1 << 20)) * 8;
        ssb.invalidate(miss);
        benchmark::DoNotOptimize(ssb.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsbInvalidateMiss)->Arg(32)->Arg(1024);

static void
BM_ConstraintSatisfied(benchmark::State &state)
{
    // satisfied() runs per eager store and per commit word.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    rtc::ConstraintBuffer cb(SIZE_MAX);
    for (Addr r = 0; r < n; ++r)
        cb.record(r * 8, rtc::CmpOp::GT, -1);
    Xoshiro rng(23);
    for (auto _ : state) {
        Addr root = rng.below(2 * n) * 8;
        benchmark::DoNotOptimize(cb.satisfied(root, 5));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConstraintSatisfied)->Arg(16)->Arg(512);

static void
BM_PredictorQuery(benchmark::State &state)
{
    rtc::ConflictPredictor pred;
    for (Addr b = 0; b < 256; ++b)
        pred.observeConflict(b * kBlockBytes);
    Xoshiro rng(13);
    for (auto _ : state) {
        Addr b = blockAddr(rng.below(512) * kBlockBytes);
        benchmark::DoNotOptimize(pred.shouldTrack(b));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorQuery);

BENCHMARK_MAIN();
