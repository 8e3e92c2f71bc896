/**
 * @file
 * Service-workload scalability across event-queue shards x directory
 * banks, with the PR-5 conflict-time knobs layered on top.
 *
 * Not a paper figure: this is the ROADMAP's "millions of users"
 * scenario. The service workload (Zipfian queue + hashtable request
 * mix) runs under RETCON while both substrate bottlenecks are modeled:
 *  - event-queue dispatch is bandwidth-limited (the sequencer
 *    serialization sharding removes, PR 2), and
 *  - the memory system's directory is occupancy-limited and commits
 *    arbitrate per-bank commit tokens (the monolithic-spine
 *    serialization banking removes, PR 4).
 * PR 4 left ~85% of core cycles at 32 threads as genuine transaction
 * conflict time, so the scaled points additionally attack the
 * conflicts themselves (PR 5):
 *  - workload-side partitioning (servicePartitions = shard count):
 *    the session table and job queue — the §5.4 pointer conflicts
 *    repair cannot help — split into per-class partitions;
 *  - NACK/abort backoff (TMConfig::backoff, gentle linear policy):
 *    retries of contended requests space out instead of re-colliding;
 *  - contention-aware dispatch (RunConfig::contentionSched): restarts
 *    blaming hot blocks are deferred, de-phasing conflicting requests.
 * The (1 shard, 1 bank) monolith keeps every knob off — it is the
 * PR-4 baseline point, bit-identical run to run.
 *
 * A final self-check requires the (4 shards, 4 banks, 4 partitions)
 * point to beat (1, 1) throughput (>= kMinGainQuick x under --quick's
 * fixed sizing, where the run is fully deterministic), so CI can run
 * this binary as a regression gate; bench/baselines pins the exact
 * numbers.
 *
 * A second axis scales OUT instead of UP (PR 6, docs/fleet.md): the
 * same fleet-wide core count split across a 2-cluster fleet
 * (2 shards x 2 banks per cluster) at increasing cross-cluster
 * request fractions. At fraction 0 the clusters run fully
 * partitioned; raising it routes session/queue requests across the
 * interconnect, so throughput degrades with wire latency and
 * two-level commit-token round trips — the "fleet xc=..." points pin
 * that degradation curve. A third axis re-runs the top point under
 * every registered scenario, and a last run streams the top point to
 * an .rtt file, which must leave the simulation bit-identical and
 * re-validate offline (docs/streaming.md).
 *
 * Usage: service_scalability [--quick] [--json PATH]
 *   --quick      CI sizing (scale 1.0, 32 threads — full Table 1;
 *                the service workload is cheap enough to simulate
 *                that CI runs the real scale-out point)
 *   --json PATH  also write every point in the metrics schema
 *                (api/metrics.hpp), which
 *                tools/check_bench_regression.py compares against
 *                bench/baselines
 * Any other argument, or --json without a path, exits 2.
 * Environment: RETCON_SCALE / RETCON_THREADS as in bench_common.hpp.
 */

#include <cstdio>
#include <cstring>

#include "api/metrics.hpp"
#include "bench_common.hpp"
#include "query/replay.hpp"
#include "scenario/scenario.hpp"

using namespace retcon;
using namespace retcon::bench;

namespace {

/// Modeled per-shard dispatch bandwidth (events/cycle). Small enough
/// that one shard saturates under a full request load, so the bench
/// exposes the serialization sharding removes.
constexpr unsigned kDispatchBandwidth = 1;

/// Modeled directory-bank occupancy (cycles per request). One bank
/// backs up under the full request load; four spread it.
constexpr Cycle kBankOccupancy = 8;

/// NACK/abort backoff at the scaled points: gentle linear steps.
/// Rollback is zero-cycle in this machine, so waiting long costs more
/// than the wasted work it avoids; 1-cycle steps capped at 16 shave
/// aborts without adding stall time (docs/tuning.md).
constexpr Cycle kBackoffBase = 1;
constexpr Cycle kBackoffCap = 16;

/// Required (4 shards, 4 banks, 4 partitions) / (1, 1) throughput
/// gain under --quick (deterministic sizing; ISSUE 5 acceptance
/// floor — PR 4 reached 2.67x on substrate banking alone).
constexpr double kMinGainQuick = 3.5;

/// The gain of the top scale-up point over the (1, 1) monolith.
constexpr api::Metric kGain{"sim.throughput_gain", "x",
                            api::Better::Higher, api::Gate::Sim};

/** @p cfg at n shards x n banks. Past (1, 1) the conflict-time knobs
 *  ride the scale-out axis: n partitions, linear backoff and the
 *  contention scheduler; the (1, 1) monolith keeps them off. */
api::RunConfig
scaled(api::RunConfig cfg, unsigned n)
{
    cfg.shards = n;
    cfg.memBanks = n;
    if (n > 1) {
        cfg.servicePartitions = n;
        cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
        cfg.tm.backoff.base = kBackoffBase;
        cfg.tm.backoff.cap = kBackoffCap;
        cfg.contentionSched = true;
    }
    return cfg;
}

double
throughput(const api::RunResult &r)
{
    return 1000.0 * double(r.coreStats.commits) / double(r.cycles);
}

/** False, after a `!!` line, unless @p r validated and the audit
 *  re-derived every commit. */
bool
audited(const api::RunResult &r)
{
    flagInvalid(r, "service");
    if (!r.reenact.ok())
        std::printf("!! reenactment audit: %s\n",
                    r.reenact.summary().c_str());
    return r.validation.ok && r.reenact.ok() &&
           r.reenact.forwardedCommitsSkipped == 0;
}

/** The per-shard and per-bank tables of one scale-up point. */
void
printShardsAndBanks(const api::RunResult &r)
{
    std::printf("  %-5s %9s %9s %9s %9s %9s %9s %9s %9s\n", "shard",
                "commits", "aborts", "repairs", "events", "stolen",
                "slipped", "tokwait", "defers");
    for (unsigned s = 0; s < r.shards.size(); ++s) {
        const api::ShardSummary &ss = r.shards[s];
        std::printf("  %-5u %9llu %9llu %9llu %9llu %9llu %9llu "
                    "%9llu %9llu\n",
                    s, (unsigned long long)ss.commits,
                    (unsigned long long)ss.aborts,
                    (unsigned long long)ss.repairs,
                    (unsigned long long)ss.queueExecuted,
                    (unsigned long long)ss.queueStolen,
                    (unsigned long long)ss.queueDeferred,
                    (unsigned long long)ss.tokenWaits,
                    (unsigned long long)ss.schedDefers);
    }
    std::printf("  %-5s %9s %9s %9s %9s %9s\n", "bank", "requests",
                "stalled", "stallcyc", "tokacq", "tokwait");
    for (unsigned b = 0; b < r.banks.size(); ++b) {
        const api::BankSummary &bs = r.banks[b];
        std::printf("  %-5u %9llu %9llu %9llu %9llu %9llu\n", b,
                    (unsigned long long)bs.requests,
                    (unsigned long long)bs.stalled,
                    (unsigned long long)bs.stallCycles,
                    (unsigned long long)bs.tokenAcquires,
                    (unsigned long long)bs.tokenWaits);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "service_scalability: %s '%s'\n"
                         "usage: service_scalability [--quick] "
                         "[--json PATH]\n",
                         std::strcmp(argv[i], "--json") == 0
                             ? "missing path after"
                             : "unknown argument",
                         argv[i]);
            return 2;
        }
    }

    api::RunConfig base = baseConfig("service");
    base.tm = api::retconConfig();
    base.shardBandwidth = kDispatchBandwidth;
    base.memBankOccupancy = kBankOccupancy;
    base.tm.commitTokenArbitration = true;
    base.trace.enabled = true;   // Audit + per-shard repair counters.
    if (quick) {
        // Full Table-1 sizing: the service workload is cheap enough
        // to simulate that CI runs the real scale-out point (a
        // smaller scale leaves the 1-shard dispatch queue unsaturated
        // and the gain meaningless).
        base.scale = 1.0;
        base.nthreads = 32;
    }

    printHeader("Service workload vs shards x banks x partitions",
                "ROADMAP conflict-time wall (not a paper figure)");
    std::printf("dispatch bandwidth: %u events/cycle/shard; "
                "work stealing on\n",
                kDispatchBandwidth);
    std::printf("bank occupancy: %llu cycles/request; "
                "per-bank commit tokens on\n",
                (unsigned long long)kBankOccupancy);
    std::printf("scaled points: partitions = shards, linear backoff "
                "(base %llu, cap %llu), contention scheduler on\n\n",
                (unsigned long long)kBackoffBase,
                (unsigned long long)kBackoffCap);

    api::MetricsDoc doc("service_scalability");
    doc.config("scale", base.scale);
    doc.config("nthreads", base.nthreads);
    doc.config("bank_occupancy", double(kBankOccupancy));
    bool all_ok = true;
    double host_s = 0;
    // Every run is audited, and its host time joins the bench total.
    auto run = [&](const api::RunConfig &cfg) {
        api::RunResult r = api::runOnce(cfg);
        all_ok = audited(r) && all_ok;
        host_s += r.hostParallel.wallMs / 1e3;
        return r;
    };

    // Scale-up axis: 1, 2 and 4 shards x banks (x partitions).
    std::vector<double> tput;
    api::RunResult top;
    unsigned top_n = 0;
    std::string top_label;
    for (unsigned n : {1u, 2u, 4u}) {
        if (n > base.nthreads)
            break;
        const api::RunConfig cfg = scaled(base, n);
        api::RunResult r = run(cfg);
        top_label = std::to_string(n) + "x" + std::to_string(n) + "x" +
                    std::to_string(cfg.servicePartitions);
        doc.addRun(top_label, r);
        tput.push_back(throughput(r));
        std::printf("%u shard%s x %u bank%s x %u partition%s "
                    "(backoff %s, sched %s): %llu cycles, "
                    "%.2f commits/kcycle\n",
                    n, n == 1 ? "" : "s", n, n == 1 ? "" : "s",
                    cfg.servicePartitions,
                    cfg.servicePartitions == 1 ? "" : "s",
                    htm::backoffPolicyName(cfg.tm.backoff.policy),
                    cfg.contentionSched ? "on" : "off",
                    (unsigned long long)r.cycles, tput.back());
        printShardsAndBanks(r);
        top = std::move(r);
        top_n = n;
    }

    // Scale-out axis: split the same fleet-wide core count across a
    // 2-cluster fleet (2 shards x 2 banks per cluster, conflict knobs
    // on) and sweep the cross-cluster request fraction. Throughput
    // must come down as more commits pay interconnect round trips for
    // remote bank tokens — the baseline pins that curve.
    const bool has_fleet = base.nthreads >= 4;
    api::RunConfig fbase = scaled(base, 2);
    fbase.clusters = 2;
    fbase.nthreads = base.nthreads / 2; // Per-cluster on a fleet.
    if (has_fleet) {
        std::printf("fleet axis: 2 clusters x (%u cores, 2 shards, "
                    "2 banks) vs cross-cluster fraction\n",
                    fbase.nthreads);
        for (double xc : {0.0, 0.1, 0.3}) {
            api::RunConfig cfg = fbase;
            cfg.crossClusterFraction = xc;
            api::RunResult r = run(cfg);
            if (xc > 0.0 && (r.net.messages == 0 ||
                             r.machineStats.xcTokenWaits == 0)) {
                // The point is meaningless if nothing crossed the
                // wire or no commit waited on a remote token.
                std::printf("!! fleet point xc=%.2f never exercised "
                            "the interconnect\n", xc);
                all_ok = false;
            }
            char label[32];
            std::snprintf(label, sizeof(label), "fleet xc=%.2f", xc);
            doc.addRun(label, r);
            std::printf("  xc %.2f: %llu cycles, %.2f commits/kcycle, "
                        "%llu xc token waits, %llu net messages, "
                        "%llu net queue cycles\n",
                        xc, (unsigned long long)r.cycles, throughput(r),
                        (unsigned long long)r.machineStats.xcTokenWaits,
                        (unsigned long long)r.net.messages,
                        (unsigned long long)r.net.queueCycles);
        }
        std::printf("\n");
    }

    // Scenario axis: the top scale-up config re-run under every
    // registered scenario (docs/scenarios.md). Open-loop arrivals make
    // throughput arrival-limited instead of core-limited, and the
    // fault scenarios carve capacity out — the baseline pins each
    // shape's commits/kcycle and its arrival ledger, so a change in
    // traffic-shape behaviour (or a silently dead scenario) fails the
    // bench gate like any other simulated regression. A link fault is
    // inert on one cluster, so link scenarios run on the fleet config
    // at the first nonzero cross-cluster fraction, where messages do
    // cross the degraded link.
    if (top_n) {
        std::printf("scenario axis: %s point vs registered scenarios\n",
                    top_label.c_str());
        for (const scenario::Scenario &sc : scenario::registry()) {
            scenario::Plan plan;
            sc.setup(plan, scenario::Env{});
            const bool on_fleet = plan.fault.linkDegrade && has_fleet;
            api::RunConfig cfg = scaled(base, top_n);
            if (on_fleet) {
                cfg = fbase;
                cfg.crossClusterFraction = 0.1;
            }
            cfg.scenario = sc.name;
            api::RunResult r = run(cfg);
            const api::ScenarioSummary &ss = r.scenario;
            if (ss.injected != ss.completed + ss.dropped) {
                std::printf("!! %s arrival ledger does not conserve\n",
                            sc.name);
                all_ok = false;
            }
            if (on_fleet && ss.linkFaultMessages == 0) {
                std::printf("!! %s link fault never touched a "
                            "message\n",
                            sc.name);
                all_ok = false;
            }
            doc.addRun(std::string("scenario ") + sc.name, r);
            std::printf("  %-15s %u cluster%s: %llu cycles, "
                        "%.2f commits/kcycle, %llu/%llu/%llu "
                        "inj/done/drop\n",
                        sc.name, cfg.clusters,
                        cfg.clusters == 1 ? "" : "s",
                        (unsigned long long)r.cycles, throughput(r),
                        (unsigned long long)ss.injected,
                        (unsigned long long)ss.completed,
                        (unsigned long long)ss.dropped);
        }
        std::printf("\n");
    }

    // Trace-writer overhead: the top scale-up point once more, now
    // streaming its complete audit record stream to disk. The stream
    // sink must not perturb the simulation — cycles are asserted
    // bit-identical — so the only cost is host-side: buffered frame
    // encoding plus the flush stalls the writer itself reports. The
    // file must then re-validate offline, record for record.
    if (top_n) {
        const char *rtt = "service_scalability_stream.rtt";
        api::RunConfig cfg = scaled(base, top_n);
        cfg.trace.streamPath = rtt;
        api::RunResult r = run(cfg);
        doc.addRun("stream " + top_label, r);
        const api::TraceStreamSummary &ts = r.traceStream;
        std::printf("trace stream (%s point): %llu records -> "
                    "%llu bytes (%.1f B/rec), %llu flushes, %.1f ms "
                    "flush stall, host wall %.1f ms vs %.1f untraced\n\n",
                    top_label.c_str(), (unsigned long long)ts.records,
                    (unsigned long long)ts.bytesWritten,
                    ts.records ? double(ts.bytesWritten) /
                                     double(ts.records)
                               : 0.0,
                    (unsigned long long)ts.flushes, ts.flushWallMs,
                    r.hostParallel.wallMs, top.hostParallel.wallMs);
        if (r.cycles != top.cycles) {
            std::printf("!! streaming perturbed the simulation: %llu "
                        "cycles traced vs %llu untraced\n",
                        (unsigned long long)r.cycles,
                        (unsigned long long)top.cycles);
            all_ok = false;
        }
        if (ts.records != r.traceEvents || ts.records == 0) {
            std::printf("!! stream wrote %llu records for %llu "
                        "emitted events\n",
                        (unsigned long long)ts.records,
                        (unsigned long long)r.traceEvents);
            all_ok = false;
        }
        query::StreamValidateResult v = query::validateStreamFile(rtt);
        if (!v.ok() || v.recordsRead != ts.records) {
            std::printf("!! streamed run failed offline validation: %s\n",
                        v.streamOk ? v.replay.report.summary().c_str()
                                   : v.error.c_str());
            all_ok = false;
        }
        std::remove(rtt);
    }

    doc.add("all runs", api::kRunSeconds, host_s);
    if (tput.size() < 2) {
        // Nothing to compare (e.g. RETCON_THREADS=1 leaves only the
        // 1-shard point): not a scaling regression, just inapplicable.
        std::printf("SKIP: need >= 2 scale-out points to judge scaling "
                    "(got %zu)\n",
                    tput.size());
        if (json_path && !doc.write(json_path))
            return 1;
        return all_ok ? 0 : 1;
    }
    const double gain = tput.back() / tput.front();
    std::printf("throughput 1x1x1 -> %s "
                "(shards x banks x partitions): %.2fx\n",
                top_label.c_str(), gain);
    doc.add("1x1x1 -> " + top_label, kGain, gain);
    if (json_path) {
        if (!doc.write(json_path))
            return 1;
        std::printf("wrote %s\n", json_path);
    }
    const double min_gain = quick ? kMinGainQuick : 1.0;
    if (!(gain > min_gain) || !all_ok) {
        std::printf("FAIL: scale-out gain %.2fx below the %.2fx floor "
                    "(or a run was invalid)\n",
                    gain, min_gain);
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
