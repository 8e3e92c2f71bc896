// Development sweep driver: run every workload under the three paper
// configurations plus DATM, validate functional state, print speedups.
//
// Usage: sweep_main [--quick] [--audit] [--shards N] [--mem-banks N]
//                   [--backoff P] [--clusters N] [--xc-fraction F]
//                   [--host-threads N] [--annotate-phases]
//                   [--scenario NAME|all] [--list-scenarios]
//                   [scale] [nthreads] [workload]
//   --scenario NAME|all
//                 sweep scenarios instead of workloads: each row is one
//                 registered scenario (scenario/scenario.hpp) driving
//                 the service workload under every machine config.
//                 Unknown names exit non-zero. The sweep fails if any
//                 scenario was vacuous — an open-loop scenario that
//                 injected nothing, a fault scenario whose fault never
//                 fired, or an arrival ledger that does not conserve
//                 (injected == completed + dropped).
//   --list-scenarios
//                 print the scenario registry (name + description) and
//                 exit.
//   --annotate-phases
//                 emit per-phase user-mark annotations in the service
//                 workload (each worker marks its request-range
//                 quarters 1..4). Audit-stream-only: rows, validation,
//                 and timing are unchanged; the marks anchor
//                 retcon-query's annotation-span queries
//                 (docs/trace-query.md).
//   --quick       reduced-iteration mode for CI (small scale, 4 threads)
//   --audit       attach the trace/reenact oracle to every run and fail
//                 on any commit the validator cannot re-derive — for
//                 DATM that includes re-deriving every forwarding chain
//                 (zero skipped chains required)
//   --shards N    run with N event-queue shards (see
//                 docs/architecture.md; results are bit-identical for
//                 any N, which --audit re-proves commit by commit)
//   --mem-banks N run with N directory banks (contention unmodeled:
//                 like --shards, results are bit-identical for any N
//                 and --audit re-proves it commit by commit)
//   --backoff P   NACK/abort retry backoff policy for every run
//                 (none|linear|exp|prop — htm::BackoffConfig,
//                 docs/tuning.md). Non-none policies change timing
//                 only; validation and the audit must stay green,
//                 and the `backoff` column reports the total extra
//                 delay imposed across the row's configs.
//   --clusters N  run every workload on an N-cluster fleet
//                 (docs/fleet.md): nthreads/shards/mem-banks become
//                 per-cluster sizes, commit-token arbitration engages
//                 (the two-level commit protocol needs tokens), and
//                 the sweep fails unless the fleet actually exercised
//                 the wire — cross-cluster token waits and interconnect
//                 messages must both be nonzero.
//   --xc-fraction F  fraction of service requests routed to a remote
//                 cluster's state (default 0.25 when --clusters > 1;
//                 ignored at one cluster).
//   --host-threads N  run the sweep's independent cells (each a full
//                 api::runOnce) on an N-thread pool. Purely host-side:
//                 every number printed is bit-identical for any N;
//                 only the wall-ms column and the sweep wall line
//                 change. Output is buffered per row and printed in
//                 canonical workload order.
//   --trace-out PREFIX  stream every audited cell's complete record
//                 stream live to PREFIX_<workload>_<config>.rtt
//                 (docs/streaming.md; requires --audit), then
//                 re-validate each file incrementally with the
//                 windowed validator (query::validateStreamFile) and
//                 fail unless its verdict matches the in-memory audit
//                 field for field and its resident state stayed
//                 bounded by open attempts. Files are removed after a
//                 clean validation unless --trace-keep is given.
//   --trace-keep  keep the streamed .rtt files on disk (for the CI
//                 corruption negative control and manual
//                 retcon-query sessions).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/datm_envelope.hpp"
#include "api/runner.hpp"
#include "query/replay.hpp"
#include "scenario/scenario.hpp"

using namespace retcon;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--audit] [--shards N] [--mem-banks N]\n"
        "          [--backoff none|linear|exp|prop] [--clusters N]\n"
        "          [--xc-fraction F] [--host-threads N]\n"
        "          [--annotate-phases] [--trace-out PREFIX]\n"
        "          [--trace-keep] [--scenario NAME|all]\n"
        "          [--list-scenarios] [scale] [nthreads] [workload]\n",
        argv0);
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/** One (workload, config) run slot, filled by whichever thread. */
struct Cell {
    bool supported = true;
    api::RunResult r;
    double wallMs = 0.0;
    /// Streamed-trace leg (--trace-out): windowed re-validation of
    /// the live .rtt file, which must agree with the in-memory audit.
    bool streamOk = true;
    std::string streamNote;
    std::uint64_t streamRecords = 0;
    std::uint64_t streamPeakOpen = 0;
};

/**
 * Field-for-field verdict parity between the live audit and the
 * windowed re-validation of the streamed file. The streamed file is
 * the complete dense record stream, so every counter — not just the
 * mismatch verdict — must agree; any drift means the stream or the
 * windowed consumer lost information.
 */
bool
reenactReportsMatch(const trace::ReenactReport &a,
                    const trace::ReenactReport &b)
{
    return a.commitsChecked == b.commitsChecked &&
           a.repairsChecked == b.repairsChecked &&
           a.constraintsChecked == b.constraintsChecked &&
           a.pinsChecked == b.pinsChecked &&
           a.abortsSeen == b.abortsSeen &&
           a.forwardsChecked == b.forwardsChecked &&
           a.forwardedCommitsChecked == b.forwardedCommitsChecked &&
           a.forwardedCommitsSkipped == b.forwardedCommitsSkipped &&
           a.mismatches == b.mismatches;
}

/** "RetCon" -> "retcon", "lazy-vb" -> "lazy-vb": filename-safe. */
std::string
labelSlug(const char *label)
{
    std::string s;
    for (const char *p = label; *p; ++p)
        s += std::isalnum(static_cast<unsigned char>(*p))
                 ? static_cast<char>(
                       std::tolower(static_cast<unsigned char>(*p)))
                 : '-';
    return s;
}

/**
 * Stream-validate one cell's .rtt file and score it against the live
 * run: verdict parity, zero skipped chains, and resident validator
 * state bounded by the core count (the windowed-validation memory
 * contract, docs/streaming.md).
 */
void
checkStreamedCell(Cell &cell, const std::string &path,
                  unsigned total_cores, bool keep)
{
    query::StreamValidateResult v = query::validateStreamFile(path);
    cell.streamRecords = v.recordsRead;
    cell.streamPeakOpen = v.replay.peakOpenAttempts;
    if (!v.streamOk) {
        cell.streamOk = false;
        cell.streamNote = v.error;
        return;
    }
    if (v.recordsRead != cell.r.traceStream.records) {
        cell.streamOk = false;
        cell.streamNote =
            "read " + std::to_string(v.recordsRead) + " of " +
            std::to_string(cell.r.traceStream.records) +
            " streamed records";
        return;
    }
    if (!reenactReportsMatch(v.replay.report, cell.r.reenact)) {
        cell.streamOk = false;
        cell.streamNote = "windowed verdict diverged from the live "
                          "audit (windowed: " +
                          v.replay.report.summary() +
                          "; live: " + cell.r.reenact.summary() + ")";
        return;
    }
    if (v.replay.peakOpenAttempts > total_cores) {
        cell.streamOk = false;
        cell.streamNote =
            "resident state unbounded: peak " +
            std::to_string(v.replay.peakOpenAttempts) +
            " open attempts on " + std::to_string(total_cores) +
            " cores";
        return;
    }
    if (!keep)
        std::remove(path.c_str());
}

/** One output row: the sequential baseline plus every config cell. */
struct Row {
    std::string name;
    Cycle seq = 0;
    double seqWallMs = 0.0;
    std::vector<Cell> cells;
};

/**
 * Run @p tasks to completion on @p threads host threads (<= 1 runs
 * them inline, in order, with zero threading machinery). Tasks are
 * independent full simulations; each writes only its own result slot.
 */
void
runTasks(std::vector<std::function<void()>> &tasks, unsigned threads)
{
    if (threads <= 1) {
        for (auto &t : tasks)
            t();
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&tasks, &next] {
        for (std::size_t i; (i = next.fetch_add(1)) < tasks.size();)
            tasks[i]();
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads && t < tasks.size(); ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool audit = false;
    bool annotate_phases = false;
    unsigned shards = 1;
    unsigned banks = 1;
    unsigned clusters = 1;
    unsigned host_threads = 0;
    double xc_fraction = -1.0; // < 0: default per cluster count.
    htm::BackoffPolicy backoff = htm::BackoffPolicy::None;
    const char *trace_out = nullptr;
    bool trace_keep = false;
    const char *scenario_arg = nullptr;
    double scale = 0.25;
    unsigned nthreads = 8;
    const char *only = nullptr;

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list-scenarios") == 0) {
            for (const scenario::Scenario &s : scenario::registry())
                std::printf("%-16s %s\n", s.name, s.description);
            return 0;
        } else if (std::strcmp(argv[i], "--scenario") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--scenario requires a name or 'all'\n");
                return 1;
            }
            scenario_arg = argv[++i];
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--audit") == 0) {
            audit = true;
        } else if (std::strcmp(argv[i], "--annotate-phases") == 0) {
            // Per-phase user-mark annotations in the service workload
            // (request-range quarters); audit-stream-only, so rows are
            // unchanged. Anchors retcon-query's span queries.
            annotate_phases = true;
        } else if (std::strcmp(argv[i], "--shards") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--shards requires a count\n");
                return 1;
            }
            shards = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--mem-banks") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--mem-banks requires a count\n");
                return 1;
            }
            banks = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--clusters") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--clusters requires a count\n");
                return 1;
            }
            clusters = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--xc-fraction") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--xc-fraction requires a fraction\n");
                return 1;
            }
            xc_fraction = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--host-threads") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--host-threads requires a count\n");
                return 1;
            }
            host_threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--trace-out requires a path prefix\n");
                return 1;
            }
            trace_out = argv[++i];
        } else if (std::strcmp(argv[i], "--trace-keep") == 0) {
            trace_keep = true;
        } else if (std::strcmp(argv[i], "--backoff") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--backoff requires a policy "
                                     "(none|linear|exp|prop)\n");
                return 1;
            }
            backoff = htm::backoffPolicyFromName(argv[++i]);
        } else if (argv[i][0] == '-' && argv[i][1] == '-') {
            // An unrecognized --flag must never be silently consumed
            // as a positional (a typo would quietly change the sweep).
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            usage(argv[0]);
            return 1;
        } else if (positional == 0) {
            scale = std::atof(argv[i]);
            ++positional;
        } else if (positional == 1) {
            nthreads = static_cast<unsigned>(std::atoi(argv[i]));
            ++positional;
        } else if (positional == 2) {
            only = argv[i];
            ++positional;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
            usage(argv[0]);
            return 1;
        }
    }
    // --quick sets CI-sized defaults but never overrides explicitly
    // supplied scale/nthreads.
    if (quick && positional == 0) {
        scale = 0.05;
        nthreads = 4;
    } else if (quick && positional == 1) {
        nthreads = 4;
    }
    if (shards < 1)
        shards = 1;
    if (shards > nthreads)
        shards = nthreads;
    if (banks < 1)
        banks = 1;
    if (banks > 64)
        banks = 64;
    if (clusters < 1)
        clusters = 1;
    // Fleet-wide totals must respect the machine limits (64 cores,
    // 64 banks); nthreads and banks are per-cluster sizes here.
    while (clusters > 1 &&
           (clusters * nthreads > 64 || clusters * banks > 64))
        --clusters;
    if (xc_fraction < 0.0)
        xc_fraction = clusters > 1 ? 0.25 : 0.0;
    if (trace_out && !audit) {
        // The streamed leg's whole check is verdict parity with the
        // in-memory audit; without one there is nothing to compare.
        std::fprintf(stderr, "--trace-out requires --audit\n");
        return 1;
    }
    std::vector<std::string> scenario_names;
    if (scenario_arg) {
        if (only) {
            std::fprintf(stderr,
                         "--scenario fixes the workload to 'service'; "
                         "drop the workload argument\n");
            return 1;
        }
        if (std::strcmp(scenario_arg, "all") == 0) {
            for (const scenario::Scenario &s : scenario::registry())
                scenario_names.push_back(s.name);
        } else if (scenario::scenarioByName(scenario_arg) != nullptr) {
            scenario_names.push_back(scenario_arg);
        } else {
            std::fprintf(stderr,
                         "unknown scenario '%s' (--list-scenarios "
                         "prints the registry)\n",
                         scenario_arg);
            return 1;
        }
    }

    if (shards > 1)
        std::printf("event queue sharded %u ways\n", shards);
    if (banks > 1)
        std::printf("directory banked %u ways\n", banks);
    if (clusters > 1)
        std::printf("fleet: %u clusters (%u cores, %u banks each), "
                    "xc-fraction %.2f\n",
                    clusters, nthreads, banks, xc_fraction);
    if (backoff != htm::BackoffPolicy::None)
        std::printf("retry backoff: %s\n",
                    htm::backoffPolicyName(backoff));
    if (trace_out)
        std::printf("trace stream: %s_<workload>_<config>.rtt, "
                    "windowed re-validation%s\n",
                    trace_out, trace_keep ? ", files kept" : "");

    // Lay the whole sweep out as independent tasks (one per sequential
    // baseline, one per config cell), run them on the host-thread
    // pool, then print rows in canonical order from the filled slots.
    auto configs = api::paperConfigs();
    htm::TMConfig datm = api::eagerConfig();
    datm.mode = htm::TMMode::DATM;
    configs.push_back({"datm", datm});

    std::vector<Row> rows;
    std::vector<std::function<void()>> tasks;
    if (scenario_arg) {
        // Scenario mode: each row is one registered scenario driving
        // the service workload; the row name is the scenario name.
        std::printf("scenario sweep: %zu scenario%s x service "
                    "workload\n",
                    scenario_names.size(),
                    scenario_names.size() == 1 ? "" : "s");
        for (const std::string &sn : scenario_names)
            rows.push_back(Row{sn, 0, 0.0,
                               std::vector<Cell>(configs.size())});
    } else {
        for (const auto &name : workloads::extendedWorkloadNames()) {
            if (only && name != only)
                continue;
            rows.push_back(Row{name, 0, 0.0,
                               std::vector<Cell>(configs.size())});
        }
    }
    if (rows.empty()) {
        std::fprintf(stderr, "no workload matched '%s'\n",
                     only ? only : "");
        return 1;
    }
    for (Row &row : rows) {
        api::RunConfig base;
        base.workload = scenario_arg ? "service" : row.name;
        if (scenario_arg)
            base.scenario = row.name;
        base.nthreads = nthreads;
        base.scale = scale;
        base.shards = shards;
        base.memBanks = banks;
        base.clusters = clusters;
        base.crossClusterFraction = xc_fraction;
        base.trace.enabled = audit;
        base.trace.ringCapacity = 0; // Audit only; no event retention.
        base.annotatePhases = annotate_phases;
        tasks.push_back([&row, base] {
            auto t0 = std::chrono::steady_clock::now();
            row.seq = api::sequentialCycles(base);
            row.seqWallMs = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        });
        for (std::size_t k = 0; k < configs.size(); ++k) {
            Cell &cell = row.cells[k];
            if (configs[k].tm.mode == htm::TMMode::DATM &&
                !api::datmSupported(base.workload, scale,
                                    nthreads * clusters, clusters)) {
                cell.supported = false;
                continue;
            }
            api::RunConfig cfg = base;
            cfg.tm = configs[k].tm;
            cfg.tm.backoff.policy = backoff;
            // The two-level commit protocol is the fleet's whole
            // point: remote bank tokens must cross the wire, so
            // arbitration is always modeled on a fleet.
            if (clusters > 1)
                cfg.tm.commitTokenArbitration = true;
            std::string stream_path;
            if (trace_out) {
                stream_path = std::string(trace_out) + "_" + row.name +
                              "_" + labelSlug(configs[k].label) +
                              ".rtt";
                cfg.trace.streamPath = stream_path;
            }
            const unsigned total_cores = nthreads * clusters;
            tasks.push_back([&cell, cfg, stream_path, total_cores,
                             trace_keep] {
                auto t0 = std::chrono::steady_clock::now();
                cell.r = api::runOnce(cfg);
                cell.wallMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                // Re-validate the streamed file inside the task so the
                // windowed replay overlaps other cells on the pool.
                if (!stream_path.empty())
                    checkStreamedCell(cell, stream_path, total_cores,
                                      trace_keep);
            });
        }
    }

    auto sweep0 = std::chrono::steady_clock::now();
    runTasks(tasks, host_threads);
    double sweep_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - sweep0)
                               .count();

    std::printf("%-18s %10s | %8s %8s %8s %8s | %10s | %8s | ok\n",
                "workload", "seq-cyc", "eager", "lazy-vb", "retcon",
                "datm", "backoff", "wall-ms");
    bool all_ok = true;
    std::uint64_t chains_validated = 0;
    std::uint64_t chains_skipped = 0;
    std::uint64_t forward_links = 0;
    std::uint64_t stream_records = 0;
    std::uint64_t stream_bytes = 0;
    std::uint64_t stream_flushes = 0;
    std::uint64_t stream_peak_open = 0;
    double stream_flush_ms = 0.0;
    std::uint64_t xc_token_waits = 0;
    std::uint64_t net_messages = 0;
    std::uint64_t net_queue_cycles = 0;
    for (const Row &row : rows) {
        std::string line;
        appendf(line, "%-18s %10llu |", row.name.c_str(),
                (unsigned long long)row.seq);
        bool ok = true;
        std::uint64_t backoff_cycles = 0;
        double row_wall_ms = row.seqWallMs;
        for (const Cell &cell : row.cells) {
            if (!cell.supported) {
                appendf(line, " %8s", "-");
                continue;
            }
            const api::RunResult &r = cell.r;
            double speedup = double(row.seq) / double(r.cycles);
            appendf(line, " %8.2f", speedup);
            if (!r.validation.ok) {
                ok = false;
                appendf(line, "(INVALID: %s)",
                        r.validation.note.c_str());
            }
            if (audit && !r.reenact.ok()) {
                ok = false;
                appendf(line, "(AUDIT: %s)",
                        r.reenact.summary().c_str());
            }
            if (audit) {
                chains_validated += r.reenact.forwardedCommitsChecked;
                chains_skipped += r.reenact.forwardedCommitsSkipped;
                forward_links += r.reenact.forwardsChecked;
            }
            if (trace_out) {
                if (!cell.streamOk) {
                    ok = false;
                    appendf(line, "(STREAM: %s)",
                            cell.streamNote.c_str());
                }
                stream_records += r.traceStream.records;
                stream_bytes += r.traceStream.bytesWritten;
                stream_flushes += r.traceStream.flushes;
                stream_flush_ms += r.traceStream.flushWallMs;
                if (cell.streamPeakOpen > stream_peak_open)
                    stream_peak_open = cell.streamPeakOpen;
            }
            backoff_cycles += r.machineStats.backoffCycles;
            xc_token_waits += r.machineStats.xcTokenWaits;
            net_messages += r.net.messages;
            net_queue_cycles += r.net.queueCycles;
            row_wall_ms += cell.wallMs;
        }
        std::string scen_note;
        if (scenario_arg) {
            // Engagement checks: re-derive the row's plan (setup is a
            // pure function of the env) and fail the sweep if any
            // declared scenario mechanism never fired — a vacuous
            // scenario passing silently is the failure mode this
            // sweep exists to catch.
            const scenario::Scenario *sc =
                scenario::scenarioByName(row.name);
            scenario::Plan plan;
            scenario::Env env;
            env.seed = api::RunConfig{}.seed; // sweep keeps the default
            env.scale = scale;
            env.nthreads = nthreads * clusters;
            env.clusters = clusters;
            sc->setup(plan, env);
            api::ScenarioSummary sum;
            for (const Cell &cell : row.cells) {
                if (!cell.supported)
                    continue;
                const api::ScenarioSummary &s = cell.r.scenario;
                if (s.injected != s.completed + s.dropped) {
                    ok = false;
                    appendf(line,
                            " (ARRIVAL LEDGER: %llu injected != %llu "
                            "completed + %llu dropped)",
                            (unsigned long long)s.injected,
                            (unsigned long long)s.completed,
                            (unsigned long long)s.dropped);
                }
                sum.injected += s.injected;
                sum.completed += s.completed;
                sum.dropped += s.dropped;
                sum.peakBacklog =
                    std::max(sum.peakBacklog, s.peakBacklog);
                sum.latencySum += s.latencySum;
                sum.latencyMax = std::max(sum.latencyMax, s.latencyMax);
                sum.phaseMarks += s.phaseMarks;
                sum.stallHits += s.stallHits;
                sum.stallCycles += s.stallCycles;
                sum.bankFaultStalls += s.bankFaultStalls;
                sum.bankFaultCycles += s.bankFaultCycles;
                sum.linkFaultMessages += s.linkFaultMessages;
                sum.linkFaultCycles += s.linkFaultCycles;
            }
            if (plan.arrival.open()) {
                appendf(scen_note,
                        "  arrivals: %llu injected, %llu completed, "
                        "%llu dropped, peak backlog %llu, mean wait "
                        "%.1f cyc\n",
                        (unsigned long long)sum.injected,
                        (unsigned long long)sum.completed,
                        (unsigned long long)sum.dropped,
                        (unsigned long long)sum.peakBacklog,
                        sum.completed ? double(sum.latencySum) /
                                            double(sum.completed)
                                      : 0.0);
                if (sum.injected == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: open-loop "
                                  "arrivals never injected)");
                }
            }
            if (plan.shift.phases > 1 && sum.phaseMarks == 0) {
                ok = false;
                appendf(line, " (SCENARIO VACUOUS: no phase shift "
                              "annotations)");
            }
            if (plan.fault.coreStall) {
                appendf(scen_note,
                        "  core stall: %llu windows, %llu cycles\n",
                        (unsigned long long)sum.stallHits,
                        (unsigned long long)sum.stallCycles);
                if (sum.stallHits == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: core-stall "
                                  "fault never fired)");
                }
            }
            if (plan.fault.bankSlow) {
                appendf(scen_note,
                        "  bank fault: %llu stalls, %llu cycles\n",
                        (unsigned long long)sum.bankFaultStalls,
                        (unsigned long long)sum.bankFaultCycles);
                if (sum.bankFaultCycles == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: bank fault "
                                  "never fired)");
                }
            }
            if (plan.fault.linkDegrade && clusters > 1) {
                appendf(scen_note,
                        "  link fault: %llu messages, %llu extra "
                        "cycles\n",
                        (unsigned long long)sum.linkFaultMessages,
                        (unsigned long long)sum.linkFaultCycles);
                if (sum.linkFaultMessages == 0) {
                    ok = false;
                    appendf(line, " (SCENARIO VACUOUS: link fault "
                                  "never touched a message)");
                }
            }
        }
        if (backoff == htm::BackoffPolicy::None && backoff_cycles != 0) {
            // The off switch must really be off (bit-identical runs).
            appendf(line, " (BACKOFF LEAK)");
            ok = false;
        }
        appendf(line, " | %10llu | %8.1f | %s\n",
                (unsigned long long)backoff_cycles, row_wall_ms,
                ok ? "yes" : "NO");
        for (std::size_t k = 0; k < configs.size(); ++k) {
            if (row.cells[k].supported)
                continue;
            // Only listed workloads can fall outside the envelope.
            const api::DatmEnvelopeEntry *e =
                api::datmEnvelopeRow(scenario_arg ? "service" : row.name);
            appendf(line, "  %s: outside the DATM envelope (%s)\n",
                    configs[k].label, e->reason);
        }
        std::fputs(line.c_str(), stdout);
        if (!scen_note.empty())
            std::fputs(scen_note.c_str(), stdout);
        all_ok = all_ok && ok;
    }
    if (clusters > 1) {
        std::printf("fleet: %llu cross-cluster token waits, %llu net "
                    "messages, %llu net queue cycles\n",
                    (unsigned long long)xc_token_waits,
                    (unsigned long long)net_messages,
                    (unsigned long long)net_queue_cycles);
        if (net_messages == 0) {
            std::printf("FAIL: a multi-cluster sweep never crossed "
                        "the interconnect\n");
            all_ok = false;
        }
        if (!only && xc_fraction > 0.0 && xc_token_waits == 0) {
            std::printf("FAIL: no commit ever waited on a remote "
                        "bank token — the two-level commit protocol "
                        "was vacuous\n");
            all_ok = false;
        }
    }
    if (audit) {
        std::printf("audit: %llu datm-forwarded commits re-derived "
                    "(%llu forward links), %llu skipped\n",
                    (unsigned long long)chains_validated,
                    (unsigned long long)forward_links,
                    (unsigned long long)chains_skipped);
        if (chains_skipped > 0) {
            std::printf("FAIL: %llu forwarding chains escaped the "
                        "audit\n",
                        (unsigned long long)chains_skipped);
            all_ok = false;
        }
        // The chain audit can only be vacuous if a DATM cell actually
        // ran: a sweep whose every DATM point sits outside the support
        // envelope (e.g. scenarios at full scale) has no chains to
        // re-derive by construction.
        bool datm_ran = false;
        for (const Row &row : rows)
            for (std::size_t k = 0; k < configs.size(); ++k)
                if (configs[k].tm.mode == htm::TMMode::DATM &&
                    row.cells[k].supported)
                    datm_ran = true;
        if (!only && datm_ran && chains_validated == 0) {
            std::printf("FAIL: no forwarded commits were re-derived — "
                        "the DATM chain audit was vacuous\n");
            all_ok = false;
        }
    }
    if (trace_out) {
        // Writer overhead in the existing bench-JSON spirit: bytes on
        // disk, amortized frame cost, and host-side flush stalls
        // (docs/streaming.md). Peak open attempts is the windowed
        // validator's resident-state bound, checked per cell above.
        std::printf("trace stream: %llu records, %llu bytes "
                    "(%.1f bytes/record), %llu flushes, %.1f "
                    "flush-stall ms, peak %llu open attempts\n",
                    (unsigned long long)stream_records,
                    (unsigned long long)stream_bytes,
                    stream_records
                        ? double(stream_bytes) / double(stream_records)
                        : 0.0,
                    (unsigned long long)stream_flushes, stream_flush_ms,
                    (unsigned long long)stream_peak_open);
        if (stream_records == 0) {
            std::printf("FAIL: --trace-out streamed zero records — "
                        "the windowed validation was vacuous\n");
            all_ok = false;
        }
    }
    std::printf("sweep wall: %.0f ms on %u host thread%s\n",
                sweep_wall_ms, host_threads ? host_threads : 1,
                host_threads > 1 ? "s" : "");
    return all_ok ? 0 : 1;
}
