#include "cells.hpp"

#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "api/datm_envelope.hpp"
#include "scenario/scenario.hpp"
#include "trace/shard_mux.hpp"
#include "trace/stream.hpp"

namespace retcon::perf {

namespace {

/// Fig 9 sizing: 32 simulated cores as in Table 1; the input scale is
/// chosen so one pass over the 56 cells takes a few host seconds.
constexpr double kFig9Scale = 0.1;
constexpr unsigned kFig9Threads = 32;

/// Cycle watchdogs, several times the longest healthy cell (1.17M
/// cycles for python at 0.1; 0.8M for the service monolith over 45
/// seeds). A corrupted run can livelock, and the watchdog turns that
/// into a failed cell instead of a hung benchmark.
constexpr Cycle kFig9Watchdog = 10'000'000;
constexpr Cycle kServiceWatchdog = 2'000'000;

/// Service sizing: Table 1 machine, 1600 requests per run. Simulated
/// results of one service run vary by about 10% from seed to seed, so
/// each service point runs at several seeds derived from the workload
/// seed (seed * replicas + j), which keeps the per-workload geomeans
/// steady across workload seeds.
constexpr double kServiceScale = 1.0;
constexpr unsigned kServiceThreads = 32;
constexpr unsigned kScaleoutReplicas = 3;
constexpr unsigned kAuditOpenReplicas = 8;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** The configuration api::sequentialCycles runs for @p cfg. */
api::RunConfig
sequentialOf(const api::RunConfig &cfg)
{
    api::RunConfig seq = cfg;
    seq.nthreads = 1;
    seq.shards = 1;
    seq.clusters = 1;
    seq.crossClusterFraction = 0.0;
    seq.tm = api::serialConfig();
    seq.trace = {};
    return seq;
}

/** Add a parallel cell preceded by its own sequential baseline. */
void
addWithBaseline(std::vector<Cell> &cells, const std::string &id,
                const api::RunConfig &cfg)
{
    Cell seq;
    seq.id = id + "/seq";
    seq.cfg = sequentialOf(cfg);
    seq.baseline = true;
    cells.push_back(seq);
    Cell par;
    par.id = id;
    par.cfg = cfg;
    par.seqCell = static_cast<int>(cells.size()) - 1;
    par.inSpeedup = true;
    cells.push_back(par);
}

std::vector<Cell>
fig9Cells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (const std::string &name : workloads::workloadNames()) {
        if (name == "bayes")
            continue; // Figure 9 excludes bayes, as the paper does.
        api::RunConfig cfg;
        cfg.workload = name;
        cfg.nthreads = kFig9Threads;
        cfg.scale = kFig9Scale;
        cfg.seed = seed;
        cfg.maxCycles = kFig9Watchdog;
        Cell seq;
        seq.id = name + "/seq";
        seq.cfg = sequentialOf(cfg);
        seq.baseline = true;
        cells.push_back(seq);
        const int seq_index = static_cast<int>(cells.size()) - 1;
        for (const api::ConfigPoint &p : api::paperConfigs()) {
            Cell c;
            c.id = name + "/" + p.label;
            c.cfg = cfg;
            c.cfg.tm = p.tm;
            c.seqCell = seq_index;
            c.inSpeedup = p.tm.mode == htm::TMMode::Retcon;
            cells.push_back(c);
        }
    }
    return cells;
}

/** Service/RetCon with dispatch, bank and commit-token limits. */
api::RunConfig
serviceBase(std::uint64_t seed)
{
    api::RunConfig cfg;
    cfg.workload = "service";
    cfg.nthreads = kServiceThreads;
    cfg.scale = kServiceScale;
    cfg.seed = seed;
    cfg.maxCycles = kServiceWatchdog;
    cfg.tm = api::retconConfig();
    cfg.shardBandwidth = 1;
    cfg.memBankOccupancy = 8;
    cfg.tm.commitTokenArbitration = true;
    return cfg;
}

/** The conflict-time knobs of the scaled points. */
void
scaledKnobs(api::RunConfig &cfg, unsigned parts)
{
    cfg.shards = parts;
    cfg.memBanks = parts;
    cfg.servicePartitions = parts;
    cfg.tm.backoff.policy = htm::BackoffPolicy::Linear;
    cfg.tm.backoff.base = 1;
    cfg.tm.backoff.cap = 16;
    cfg.contentionSched = true;
}

api::RunConfig
serviceTop(std::uint64_t seed)
{
    api::RunConfig cfg = serviceBase(seed);
    scaledKnobs(cfg, 4);
    return cfg;
}

std::vector<Cell>
scaleoutCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (unsigned j = 0; j < kScaleoutReplicas; ++j) {
        const std::uint64_t s = seed * kScaleoutReplicas + j;
        const std::string tag = "#" + std::to_string(j);
        addWithBaseline(cells, "service/1x1x1" + tag, serviceBase(s));
        addWithBaseline(cells, "service/4x4x4" + tag, serviceTop(s));
        api::RunConfig fleet = serviceBase(s);
        scaledKnobs(fleet, 2);
        fleet.clusters = 2;
        fleet.nthreads = kServiceThreads / 2; // Per cluster.
        fleet.crossClusterFraction = 0.3;
        addWithBaseline(cells, "service/fleet2-xc0.3" + tag, fleet);
        cells.back().needsNet = true;
    }
    return cells;
}

std::vector<Cell>
auditOpenCells(std::uint64_t seed, const std::string &tmp_dir)
{
    std::vector<Cell> cells;
    for (unsigned j = 0; j < kAuditOpenReplicas; ++j) {
        api::RunConfig cfg = serviceTop(seed * kAuditOpenReplicas + j);
        cfg.scenario = "diurnal-ramp";
        cfg.trace.enabled = true;
        cfg.trace.validate = true;
        cfg.trace.ringCapacity = 0;
        cfg.trace.streamPath = tmp_dir + "/audit-open-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(j) + ".rtt";
        addWithBaseline(cells,
                        "service/4x4x4/diurnal-ramp#" + std::to_string(j),
                        cfg);
    }
    return cells;
}

void
pushShardAndBankSummaries(exec::Cluster &cluster, api::RunResult &r)
{
    r.shards.resize(cluster.numShards());
    for (unsigned s = 0; s < cluster.numShards(); ++s) {
        api::ShardSummary &sum = r.shards[s];
        exec::CoreStats cs = cluster.shardCoreStats(s);
        sum.txns = cs.txns;
        sum.commits = cs.commits;
        sum.aborts = cs.aborts;
        const auto &qs = cluster.shardQueueStats(s);
        sum.queueScheduled = qs.scheduled;
        sum.queueExecuted = qs.executed;
        sum.queueStolen = qs.stolen;
        sum.queueDeferred = qs.deferred;
        for (CoreId c = 0; c < cluster.numThreads(); ++c)
            if (cluster.shardOf(c) == s)
                sum.tokenWaits += cluster.machine().tokenWaits(c);
        exec::ContentionScheduler::Stats sched = cluster.schedStats(s);
        sum.schedObserved = sched.observed;
        sum.schedDefers = sched.defers;
        sum.schedDeferCycles = sched.deferCycles;
    }
    r.banks.resize(cluster.numBanks());
    for (unsigned b = 0; b < cluster.numBanks(); ++b) {
        const auto &bs = cluster.memorySystem().bankStats(b);
        r.banks[b].requests = bs.requests;
        r.banks[b].stalled = bs.stalled;
        r.banks[b].stallCycles = bs.stallCycles;
        const auto &ts = cluster.machine().bankTokenStats(b);
        r.banks[b].tokenAcquires = ts.acquires;
        r.banks[b].tokenWaits = ts.waits;
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig9-grid", "service-scaleout", "service-audit-open"};
    return names;
}

std::vector<Cell>
makeCells(const std::string &workload, std::uint64_t seed,
          const std::string &tmp_dir)
{
    if (workload == "fig9-grid")
        return fig9Cells(seed);
    if (workload == "service-scaleout")
        return scaleoutCells(seed);
    if (workload == "service-audit-open")
        return auditOpenCells(seed, tmp_dir);
    return {};
}

Fingerprint
fingerprint(const api::RunResult &r)
{
    const htm::MachineStats &m = r.machineStats;
    const api::ScenarioSummary &sc = r.scenario;
    Fingerprint f = {r.cycles,        r.coreStats.txns,
                     r.coreStats.commits, r.coreStats.aborts,
                     m.commits,       m.aborts,
                     m.conflicts,     m.nacks,
                     m.tokenWaits,    m.backoffCycles,
                     r.net.messages,  r.net.queueCycles,
                     sc.injected,     sc.completed,
                     sc.dropped,      sc.latencySum,
                     sc.latencyMax};
    for (const api::ShardSummary &s : r.shards)
        f.insert(f.end(), {s.txns, s.commits, s.aborts, s.queueScheduled,
                           s.queueExecuted, s.queueStolen,
                           s.queueDeferred, s.tokenWaits, s.schedDefers,
                           s.schedDeferCycles});
    for (const api::BankSummary &b : r.banks)
        f.insert(f.end(), {b.requests, b.stallCycles, b.tokenWaits});
    return f;
}

std::vector<std::string>
checkOutputs(const Cell &cell, const api::RunResult &r,
             const query::StreamValidateResult *s)
{
    std::vector<std::string> bad;
    if (r.cycles >= cell.cfg.maxCycles)
        bad.push_back("ran into the cycle watchdog");
    if (!r.validation.ok)
        bad.push_back("workload validation: " + r.validation.note);
    if (cell.cfg.trace.enabled && cell.cfg.trace.validate &&
        (!r.reenact.ok() || r.reenact.forwardedCommitsSkipped != 0))
        bad.push_back("reenactment audit: " + r.reenact.summary());
    if (cell.streamed()) {
        if (s == nullptr || !s->ok())
            bad.push_back("stream validation: " +
                          (s ? s->error + " " + s->replay.report.summary()
                             : std::string("not run")));
        else if (s->recordsRead != r.traceStream.records ||
                 s->recordsRead == 0)
            bad.push_back("stream read " + std::to_string(s->recordsRead) +
                          " records, writer wrote " +
                          std::to_string(r.traceStream.records));
    }
    const api::ScenarioSummary &sc = r.scenario;
    if (!cell.cfg.scenario.empty() &&
        sc.injected != sc.completed + sc.dropped)
        bad.push_back("arrival ledger does not conserve");
    return bad;
}

CellRun
runCell(const Cell &cell)
{
    CellRun out;
    auto t0 = std::chrono::steady_clock::now();
    out.result = api::runOnce(cell.cfg);
    if (cell.streamed()) {
        auto v0 = std::chrono::steady_clock::now();
        out.stream = query::validateStreamFile(cell.cfg.trace.streamPath);
        out.validateSeconds = secondsSince(v0);
    }
    out.seconds = secondsSince(t0);
    if (cell.streamed())
        std::remove(cell.cfg.trace.streamPath.c_str());
    out.failures = checkOutputs(cell, out.result, &out.stream);
    return out;
}

// ---- StagedCell ------------------------------------------------------

struct StagedCell::Impl {
    api::RunConfig cfg;
    std::unique_ptr<scenario::Runtime> scenarioRt;
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<exec::Fleet> fleet;
    std::unique_ptr<trace::ShardMux> mux;
    std::unique_ptr<trace::ReenactmentValidator> validator;
    std::unique_ptr<trace::StreamWriter> writer;
    api::RunResult result;
};

StagedCell::StagedCell(const api::RunConfig &cfg)
    : _impl(std::make_unique<Impl>())
{
    Impl &s = *_impl;
    s.cfg = cfg;
    workloads::WorkloadParams params;
    params.nthreads = cfg.nthreads * cfg.clusters;
    params.seed = cfg.seed;
    params.scale = cfg.scale;
    params.servicePartitions = cfg.servicePartitions;
    params.clusters = cfg.clusters;
    params.crossClusterFraction = cfg.crossClusterFraction;
    params.annotatePhases = cfg.annotatePhases;
    params.arenaBytes = api::arenaBytesFor(cfg.tm.mode, params.nthreads);
    if (!cfg.scenario.empty()) {
        // The benchmark's scenarios are arrival-only: runOnce's fault
        // overlays are not composed here, and the fingerprint check
        // against the runOnce cell would flag a scenario that had one.
        scenario::Env env;
        env.seed = cfg.seed;
        env.scale = cfg.scale;
        env.nthreads = params.nthreads;
        env.clusters = cfg.clusters;
        s.scenarioRt = std::make_unique<scenario::Runtime>(
            *scenario::scenarioByName(cfg.scenario), env);
        params.scenario = s.scenarioRt.get();
    }
    s.workload = workloads::makeWorkload(cfg.workload, params);

    exec::ClusterConfig ccfg;
    ccfg.numThreads = cfg.nthreads;
    ccfg.seed = cfg.seed;
    ccfg.tm = cfg.tm;
    ccfg.maxCycles = cfg.maxCycles;
    ccfg.numShards = cfg.shards;
    ccfg.shardBandwidth = cfg.shardBandwidth;
    ccfg.shardWorkStealing = cfg.shardWorkStealing;
    ccfg.hostThreads = cfg.hostThreads;
    ccfg.memBanks = cfg.memBanks;
    ccfg.timing.bankOccupancy = cfg.memBankOccupancy;
    ccfg.sched = cfg.sched;
    ccfg.sched.enabled = cfg.contentionSched || cfg.sched.enabled;
    net::NetConfig ncfg;
    ncfg.topology = net::topologyFromName(cfg.netTopology.c_str());
    ncfg.linkLatency = cfg.netLatency;
    ncfg.linkBandwidth = cfg.netBandwidth;
    s.fleet = std::make_unique<exec::Fleet>(ccfg, cfg.clusters, ncfg);
    exec::Cluster &cluster = s.fleet->cluster();

    if (cfg.trace.enabled) {
        s.mux = std::make_unique<trace::ShardMux>(
            cluster.numShards(),
            [&cluster](CoreId core) { return cluster.shardOf(core); },
            cfg.trace.ringCapacity);
        if (cfg.trace.validate) {
            s.validator = std::make_unique<trace::ReenactmentValidator>(
                [&cluster](Addr a) { return cluster.memory().readWord(a); });
            s.mux->addDownstream(s.validator.get());
        }
        if (!cfg.trace.streamPath.empty()) {
            s.writer =
                std::make_unique<trace::StreamWriter>(cfg.trace.streamPath);
            s.mux->addDownstream(s.writer.get());
        }
        cluster.setTraceSink(s.mux.get());
    }
    s.workload->setup(cluster);
    cluster.start(s.workload->program());
}

StagedCell::~StagedCell() = default;

void
StagedCell::run()
{
    _impl->result.cycles = _impl->fleet->cluster().run();
}

void
StagedCell::validate()
{
    _impl->result.validation =
        _impl->workload->validate(_impl->fleet->cluster());
}

void
StagedCell::closeStream()
{
    if (!_impl->writer)
        return;
    _impl->writer->close();
    const trace::StreamWriter::Stats &ws = _impl->writer->stats();
    _impl->result.traceStream.records = ws.records;
    _impl->result.traceStream.bytesWritten = ws.bytesWritten;
    _impl->result.traceStream.flushes = ws.flushes;
    _impl->result.traceStream.flushWallMs = ws.flushWallMs;
}

api::RunResult
StagedCell::result()
{
    Impl &s = *_impl;
    exec::Cluster &cluster = s.fleet->cluster();
    api::RunResult r = s.result;
    r.breakdown = cluster.aggregateBreakdown();
    r.coreStats = cluster.aggregateStats();
    r.machineStats = cluster.machine().stats();
    pushShardAndBankSummaries(cluster, r);
    if (const net::Interconnect *n = s.fleet->net()) {
        r.net.messages = n->totalMessages();
        r.net.payloadWords = n->totalPayloadWords();
        r.net.queueCycles = n->totalQueueCycles();
    }
    if (s.scenarioRt) {
        const scenario::Runtime::Stats &st = s.scenarioRt->stats();
        r.scenario.name = s.cfg.scenario;
        r.scenario.injected = st.injected;
        r.scenario.completed = st.completed;
        r.scenario.dropped = st.dropped;
        r.scenario.latencySum = st.latencySum;
        r.scenario.latencyMax = st.latencyMax;
    }
    if (s.validator)
        r.reenact = s.validator->report();
    if (s.mux)
        r.traceEvents = s.mux->totalEvents();
    return r;
}

} // namespace retcon::perf
