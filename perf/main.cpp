/**
 * @file
 * The repository benchmark (README.md in this directory).
 *
 *   retcon_perf --workload NAME --seed N --seconds S --trace 0|1
 *               [--tmp-dir DIR] [--inject-repair-fault]
 *
 * Runs one workload's cells serially on one host thread through
 * api::runOnce and checks every cell's output. --trace 0 measures the
 * end-to-end metrics for S seconds; --trace 1 runs one untraced and one
 * span-traced pass plus the per-layer drivers and reports the per-layer
 * metrics. The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * --inject-repair-fault corrupts the repairs of the first RetCon cell
 * (TMConfig::faultInjectRepairXor); it is the negative control of the
 * benchmark's own tests and must make the run report failures.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "cells.hpp"
#include "drivers.hpp"

using namespace retcon;
using namespace retcon::perf;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string tmpDir = ".";
    bool injectRepairFault = false;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has_value = i + 1 < argc;
        if (a == "--inject-repair-fault") {
            o.injectRepairFault = true;
        } else if (a == "--workload" && has_value) {
            o.workload = argv[++i];
            have_workload = true;
        } else if (a == "--seed" && has_value) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            o.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_value) {
            o.trace = std::atoi(argv[++i]);
        } else if (a == "--tmp-dir" && has_value) {
            o.tmpDir = argv[++i];
        } else {
            std::fprintf(stderr, "unknown or incomplete argument '%s'\n",
                         a.c_str());
            return false;
        }
    }
    return have_workload && o.seconds > 0 &&
           (o.trace == 0 || o.trace == 1);
}

// ---- Metrics ---------------------------------------------------------

enum class Kind { EndToEnd, Layer, Printed };

/** Every metric the benchmark reports, named once. */
struct MetricDef {
    const char *name;
    const char *unit;
    Kind kind;
};

constexpr MetricDef kMetrics[] = {
    {"wall_s", "s", Kind::EndToEnd},
    {"setup_s", "s", Kind::EndToEnd},
    {"peak_rss_mb", "MB", Kind::EndToEnd},
    {"sim_speedup_geomean", "x", Kind::EndToEnd},
    {"sim_commits_per_kcycle", "1/kcycle", Kind::EndToEnd},
    {"fail_frac", "frac", Kind::Printed},

    {"sim.events", "count", Kind::Layer},
    {"sim.queue_ns_per_event", "ns", Kind::Layer},
    {"sim.slips", "count", Kind::Layer},
    {"sim.steals", "count", Kind::Layer},
    {"sim.slip_ns_per_event", "ns", Kind::Layer},
    {"htm.access_ns.c8", "ns", Kind::Layer},
    {"htm.access_ns.c32", "ns", Kind::Layer},
    {"htm.access_ns.c64", "ns", Kind::Layer},
    {"htm.conflicts", "count", Kind::Layer},
    {"htm.nacks", "count", Kind::Layer},
    {"htm.commits", "count", Kind::Layer},
    {"htm.aborts", "count", Kind::Layer},
    {"htm.commit_ratio", "frac", Kind::Layer},
    {"htm.token_waits", "count", Kind::Layer},
    {"mem.access_ns", "ns", Kind::Layer},
    {"mem.bank_requests", "count", Kind::Layer},
    {"mem.bank_stall_cycles", "cycles", Kind::Layer},
    {"exec.run_s", "s", Kind::Layer},
    {"exec.conflict_share", "frac", Kind::Layer},
    {"exec.sched_defers", "count", Kind::Layer},
    {"net.messages", "count", Kind::Layer},
    {"net.queue_cycles", "cycles", Kind::Layer},
    {"trace.records", "count", Kind::Layer},
    {"trace.bytes", "B", Kind::Layer},
    {"trace.flush_ms", "ms", Kind::Layer},
    {"trace.audit_s", "s", Kind::Layer},
    {"trace.write_ns_per_record", "ns", Kind::Layer},
    {"query.validate_s", "s", Kind::Layer},
    {"query.ns_per_record", "ns", Kind::Layer},
    {"workloads.setup_s", "s", Kind::Layer},
    {"workloads.validate_s", "s", Kind::Layer},
    {"scenario.injected", "count", Kind::Layer},
    {"scenario.dropped", "count", Kind::Layer},
    {"sim_drop_frac", "frac", Kind::Layer},
    {"sim_queue_mean_kcycles", "kcycles", Kind::Layer},
    {"sim_queue_max_kcycles", "kcycles", Kind::Layer},
    {"bench.trace_overhead_frac", "frac", Kind::Layer},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB.
}

// ---- Spans -----------------------------------------------------------

/** In-memory span log, written out when the run ends. */
class Spans
{
  public:
    struct Span {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        int cell = -1;
    };

    int
    open(const std::string &name, int cell)
    {
        int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({name, now(), 0, parent, cell});
        _stack.push_back(int(_spans.size()) - 1);
        return _stack.back();
    }

    /** Seconds since span @p id opened (it may still be open). */
    double sinceOpen(int id) const { return now() - _spans[id].start; }

    void
    close(int id)
    {
        _spans[id].end = now();
        _stack.pop_back();
    }

    double
    total(const std::string &name) const
    {
        double t = 0;
        for (const Span &s : _spans)
            if (s.name == name)
                t += s.end - s.start;
        return t;
    }

    /** Per-name total and self time (total minus child spans). */
    std::map<std::string, std::pair<double, double>>
    selfTimes() const
    {
        std::vector<double> child(_spans.size(), 0.0);
        for (const Span &s : _spans)
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        std::map<std::string, std::pair<double, double>> out;
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            double d = _spans[i].end - _spans[i].start;
            out[_spans[i].name].first += d;
            out[_spans[i].name].second += d - child[i];
        }
        return out;
    }

    bool
    write(const std::string &path, const std::vector<Cell> &cells) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                         "\"end\":%.9f,\"parent\":%d,\"cell\":\"%s\"}\n",
                         i, s.name.c_str(), s.start, s.end, s.parent,
                         s.cell >= 0 ? cells[s.cell].id.c_str() : "");
        }
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point _t0 = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _stack;

    double now() const { return secondsSince(_t0); }
};

/** Opens a span for the lifetime of the scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Spans &s, const std::string &name, int cell = -1)
        : _s(s), _id(s.open(name, cell))
    {}
    ~ScopedSpan() { _s.close(_id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    double seconds() const { return _s.sinceOpen(_id); }

  private:
    Spans &_s;
    int _id;
};

// ---- Checks ----------------------------------------------------------

/** Cell executions attempted and failed, with the first reasons. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    void
    record(const Cell &cell, const std::vector<std::string> &failures)
    {
        ++attempted;
        if (failures.empty())
            return;
        ++failed;
        for (const std::string &f : failures)
            if (notes.size() < 20)
                notes.push_back(cell.id + ": " + f);
    }
};

/**
 * The vacuity guard: each workload must exercise the layers it exists
 * for, and leave idle the ones it exists to bypass.
 */
std::vector<std::string>
vacuity(const std::string &workload, const std::vector<Cell> &cells,
        const std::vector<CellRun> &runs)
{
    std::uint64_t slips = 0, records = 0, dropped = 0;
    std::vector<std::string> bad;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const api::RunResult &r = runs[i].result;
        for (const api::ShardSummary &s : r.shards)
            slips += s.queueDeferred;
        records += r.traceStream.records + r.traceEvents;
        dropped += r.scenario.dropped;
        if (cells[i].needsNet && r.net.messages == 0)
            bad.push_back(cells[i].id + " sent no interconnect messages");
    }
    if (workload == "fig9-grid" && (slips != 0 || records != 0))
        bad.push_back("fig9-grid must run with no slips and no tracing");
    if (workload == "service-scaleout" && slips == 0)
        bad.push_back("service-scaleout made no dispatch slips");
    if (workload == "service-audit-open" && (records == 0 || dropped == 0))
        bad.push_back("service-audit-open wrote no trace records or "
                      "dropped no requests");
    return bad;
}

/** One untraced pass through runOnce, checked against @p ref. */
std::vector<CellRun>
untracedPass(const std::vector<Cell> &cells,
             const std::vector<Fingerprint> *ref, Tally &tally)
{
    std::vector<CellRun> runs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellRun run = runCell(cells[i]);
        if (ref && fingerprint(run.result) != (*ref)[i])
            run.failures.push_back("simulated fingerprint differs from "
                                   "the first pass");
        if (ref)
            tally.record(cells[i], run.failures);
        runs.push_back(std::move(run));
    }
    return runs;
}

// ---- Metric computation ---------------------------------------------

using Values = std::map<std::string, double>;

/** Simulated end-to-end metrics and layer counters from one pass. */
void
simulatedMetrics(const std::vector<Cell> &cells,
                 const std::vector<CellRun> &runs, Values &v)
{
    double log_cpk = 0, log_speedup = 0;
    int n_cpk = 0, n_speedup = 0;
    double conflict = 0, total = 0;
    std::uint64_t injected = 0, dropped = 0, completed = 0;
    std::uint64_t lat_sum = 0, lat_max = 0;
    Values c; // Summed counters.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const api::RunResult &r = runs[i].result;
        if (!cells[i].baseline) {
            log_cpk += std::log(1000.0 * double(r.coreStats.commits) /
                                double(r.cycles));
            ++n_cpk;
            conflict += r.breakdown.conflict;
            total += r.breakdown.total();
        }
        if (cells[i].inSpeedup) {
            log_speedup += std::log(
                double(runs[cells[i].seqCell].result.cycles) /
                double(r.cycles));
            ++n_speedup;
        }
        for (const api::ShardSummary &s : r.shards) {
            c["sim.events"] += double(s.queueExecuted);
            c["sim.slips"] += double(s.queueDeferred);
            c["sim.steals"] += double(s.queueStolen);
            c["exec.sched_defers"] += double(s.schedDefers);
        }
        for (const api::BankSummary &b : r.banks) {
            c["mem.bank_requests"] += double(b.requests);
            c["mem.bank_stall_cycles"] += double(b.stallCycles);
        }
        const htm::MachineStats &m = r.machineStats;
        c["htm.conflicts"] += double(m.conflicts);
        c["htm.nacks"] += double(m.nacks);
        c["htm.commits"] += double(m.commits);
        c["htm.aborts"] += double(m.aborts);
        c["htm.token_waits"] += double(m.tokenWaits);
        c["net.messages"] += double(r.net.messages);
        c["net.queue_cycles"] += double(r.net.queueCycles);
        c["trace.records"] += double(r.traceStream.records);
        c["trace.bytes"] += double(r.traceStream.bytesWritten);
        if (cells[i].inSpeedup) { // Baselines replay the same arrivals.
            injected += r.scenario.injected;
            dropped += r.scenario.dropped;
            completed += r.scenario.completed;
            lat_sum += r.scenario.latencySum;
            lat_max = std::max(lat_max, r.scenario.latencyMax);
        }
    }
    v.insert(c.begin(), c.end());
    v["sim_commits_per_kcycle"] = std::exp(log_cpk / n_cpk);
    v["sim_speedup_geomean"] = std::exp(log_speedup / n_speedup);
    v["htm.commit_ratio"] =
        c["htm.commits"] / std::max(1.0, c["htm.commits"] + c["htm.aborts"]);
    v["exec.conflict_share"] = total > 0 ? conflict / total : 0;
    v["scenario.injected"] = double(injected);
    v["scenario.dropped"] = double(dropped);
    v["sim_drop_frac"] = injected ? double(dropped) / double(injected) : 0;
    v["sim_queue_mean_kcycles"] =
        completed ? double(lat_sum) / double(completed) / 1e3 : 0;
    v["sim_queue_max_kcycles"] = double(lat_max) / 1e3;
}

/**
 * --trace 0: alternate a set-up-only round (the calls runOnce makes
 * before Cluster::run) with a full pass, until @p seconds have passed.
 * Per cell, the median of each; wall_s excludes the set-up median.
 * A run whose reference pass already failed measures one round only.
 */
void
measureEndToEnd(const Options &o, const std::vector<Cell> &cells,
                const std::vector<Fingerprint> &ref, Tally &tally,
                Values &v)
{
    const int min_rounds = tally.failed ? 1 : 3;
    std::vector<std::vector<double>> setup(cells.size()), pass(cells.size());
    auto t0 = Clock::now();
    auto more = [&](int round) {
        return round < min_rounds ||
               (tally.failed == 0 && secondsSince(t0) < o.seconds);
    };
    for (int round = 0; more(round); ++round) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            auto s0 = Clock::now();
            {
                StagedCell staged(cells[i].cfg);
                setup[i].push_back(secondsSince(s0));
            }
            if (cells[i].streamed())
                std::remove(cells[i].cfg.trace.streamPath.c_str());
        }
        std::vector<CellRun> runs = untracedPass(cells, &ref, tally);
        double setup_round = 0, pass_round = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            pass[i].push_back(runs[i].seconds);
            setup_round += setup[i].back();
            pass_round += runs[i].seconds;
        }
        std::printf("round %d: set-up %.4f s, pass %.4f s\n", round,
                    setup_round, pass_round);
    }
    double setup_s = 0, cells_s = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        setup_s += median(setup[i]);
        cells_s += median(pass[i]);
    }
    v["setup_s"] = setup_s;
    v["wall_s"] = cells_s - setup_s;
    std::printf("measured %zu rounds in %.2f s\n", pass[0].size(),
                secondsSince(t0));
}

/**
 * --trace 1: a span-traced pass composed from runOnce's own calls
 * (checked against the untraced fingerprints), the trace-layer audit
 * cost on program-traced cells, and the layer drivers.
 */
void
measureLayers(const Options &o, const std::vector<Cell> &cells,
              const std::vector<Fingerprint> &ref,
              const std::vector<CellRun> &untraced, Tally &tally,
              Spans &spans, Values &v)
{
    double traced_cells = 0, untraced_cells = 0, audit = 0;
    double flush_ms = 0;
    {
        ScopedSpan pass(spans, "bench.traced_pass");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            ScopedSpan cs(spans, "cell", int(i));
            std::unique_ptr<StagedCell> staged;
            {
                ScopedSpan s(spans, "workloads.setup", int(i));
                staged = std::make_unique<StagedCell>(cell.cfg);
            }
            double run_s;
            {
                ScopedSpan s(spans, "exec.run", int(i));
                staged->run();
                run_s = s.seconds();
            }
            {
                ScopedSpan s(spans, "workloads.validate", int(i));
                staged->validate();
            }
            {
                ScopedSpan s(spans, "trace.close", int(i));
                staged->closeStream();
            }
            query::StreamValidateResult stream;
            if (cell.streamed()) {
                ScopedSpan s(spans, "query.validate", int(i));
                stream = query::validateStreamFile(cell.cfg.trace.streamPath);
                std::remove(cell.cfg.trace.streamPath.c_str());
            }
            api::RunResult r = staged->result();
            staged.reset();
            traced_cells += cs.seconds();
            untraced_cells += untraced[i].seconds;
            flush_ms += r.traceStream.flushWallMs;
            std::vector<std::string> bad = checkOutputs(cell, r, &stream);
            if (fingerprint(r) != ref[i])
                bad.push_back("composed cell's fingerprint differs from "
                              "runOnce's");
            if (cell.cfg.trace.enabled) {
                // The same cell with the program's tracing off: the
                // difference in event-loop time is the audit's cost.
                api::RunConfig plain = cell.cfg;
                plain.trace = {};
                ScopedSpan s(spans, "cell.untraced_program", int(i));
                StagedCell p(plain);
                auto r0 = Clock::now();
                p.run();
                audit += run_s - secondsSince(r0);
                p.validate();
                if (fingerprint(p.result()) != ref[i])
                    bad.push_back("program tracing changed the "
                                  "simulation");
            }
            tally.record(cell, bad);
        }
    }
    v["bench.trace_overhead_frac"] = traced_cells / untraced_cells - 1.0;
    v["exec.run_s"] = spans.total("exec.run");
    v["workloads.setup_s"] = spans.total("workloads.setup");
    v["workloads.validate_s"] = spans.total("workloads.validate");

    std::vector<std::string> bad;
    {
        ScopedSpan s(spans, "driver.sim.queue");
        v["sim.queue_ns_per_event"] = queueNsPerEvent(32, 1'000'000, o.seed);
    }
    {
        ScopedSpan s(spans, "driver.sim.slip");
        v["sim.slip_ns_per_event"] = slipNsPerEvent(9, 200'000);
    }
    for (unsigned cores : {8u, 32u, 64u}) {
        std::string name = "htm.access_ns.c" + std::to_string(cores);
        ScopedSpan s(spans, "driver." + name);
        v[name] = txAccessNs(cores, 400'000, bad);
    }
    {
        ScopedSpan s(spans, "driver.mem");
        v["mem.access_ns"] = memAccessNs(1'000'000, o.seed);
    }
    TraceDriver td;
    {
        // A half-size copy of the audited open-loop cell, on every
        // workload, so the trace and query layers are always timed.
        ScopedSpan s(spans, "driver.trace");
        api::RunConfig cfg =
            makeCells("service-audit-open", o.seed, o.tmpDir).back().cfg;
        cfg.scale = 0.5;
        cfg.trace.streamPath =
            o.tmpDir + "/driver-" + std::to_string(::getpid()) + ".rtt";
        td = traceDriver(cfg, o.tmpDir, bad);
    }
    for (const std::string &b : bad)
        tally.notes.push_back("driver: " + b);
    ++tally.attempted; // The drivers count as one checked unit.
    tally.failed += bad.empty() ? 0 : 1;

    v["trace.flush_ms"] = flush_ms + td.flushMs;
    v["trace.audit_s"] = audit + td.auditS;
    v["trace.write_ns_per_record"] = td.writeNsPerRecord;
    v["query.validate_s"] = spans.total("query.validate") + td.validateS;
    v["query.ns_per_record"] = td.queryNsPerRecord;
}

void
printJson(const Tally &tally, const Values &v, Kind kind)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                (unsigned long long)tally.attempted,
                (unsigned long long)tally.failed);
    bool first = true;
    for (const MetricDef &m : kMetrics) {
        if (m.kind != kind)
            continue;
        auto it = v.find(m.name);
        double value = it == v.end() ? std::nan("") : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name, value, m.unit);
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: retcon_perf --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--tmp-dir DIR] "
                     "[--inject-repair-fault]\n");
        return 2;
    }
    std::vector<Cell> cells = makeCells(o.workload, o.seed, o.tmpDir);
    if (cells.empty()) {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    if (o.injectRepairFault) {
        for (Cell &c : cells) {
            if (c.cfg.tm.mode == htm::TMMode::Retcon) {
                c.cfg.tm.faultInjectRepairXor = 1;
                break;
            }
        }
    }
    std::printf("workload %s, seed %llu, %zu cells, trace %d\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                cells.size(), o.trace);

    // The first pass is the reference: its fingerprints pin every later
    // execution of the same cell, and the vacuity guard reads it.
    Tally tally;
    std::vector<CellRun> first = untracedPass(cells, nullptr, tally);
    std::vector<std::string> vacuous = vacuity(o.workload, cells, first);
    std::vector<Fingerprint> ref;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        first[i].failures.insert(first[i].failures.end(), vacuous.begin(),
                                 vacuous.end());
        tally.record(cells[i], first[i].failures);
        ref.push_back(fingerprint(first[i].result));
    }

    Values v;
    simulatedMetrics(cells, first, v);
    Spans spans;
    if (o.trace == 0) {
        measureEndToEnd(o, cells, ref, tally, v);
        v["peak_rss_mb"] = peakRssMb();
    } else {
        std::vector<CellRun> untraced = untracedPass(cells, &ref, tally);
        measureLayers(o, cells, ref, untraced, tally, spans, v);
        std::string path = o.tmpDir + "/spans-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".jsonl";
        if (spans.write(path, cells))
            std::printf("spans written to %s\n", path.c_str());
        std::printf("%-30s %10s %10s\n", "span", "total_s", "self_s");
        for (const auto &[name, t] : spans.selfTimes())
            std::printf("%-30s %10.4f %10.4f\n", name.c_str(), t.first,
                        t.second);
    }
    v["fail_frac"] = double(tally.failed) / double(tally.attempted);

    for (const std::string &note : tally.notes)
        std::printf("FAIL %s\n", note.c_str());
    for (const MetricDef &m : kMetrics) {
        auto it = v.find(m.name);
        if (it != v.end())
            std::printf("metric %-28s %18.6f %s\n", m.name, it->second,
                        m.unit);
    }
    printJson(tally, v, o.trace == 0 ? Kind::EndToEnd : Kind::Layer);
    return 0;
}
