#include "exec/cluster.hpp"

#include "sim/logging.hpp"

namespace retcon::exec {

namespace {

ShardedQueueConfig
queueConfig(const ClusterConfig &cfg)
{
    ShardedQueueConfig q;
    q.nshards = cfg.numShards;
    q.dispatchBandwidth = cfg.shardBandwidth;
    q.workStealing = cfg.shardWorkStealing;
    // A fleet scopes work stealing to each cluster's shard slice:
    // clusters share no dispatch capacity, only the wire.
    if (cfg.fleet.fleet())
        q.stealGroup = cfg.numShards / cfg.fleet.clusters;
    return q;
}

} // namespace

Cluster::Cluster(const ClusterConfig &cfg)
    : _cfg(cfg), _eq(queueConfig(cfg))
{
    sim_assert(cfg.numThreads >= 1 && cfg.numThreads <= 64,
               "thread count out of range");
    sim_assert(cfg.numShards >= 1 && cfg.numShards <= cfg.numThreads,
               "shard count out of range (1..numThreads)");
    sim_assert(!cfg.fleet.fleet() ||
                   (cfg.numShards % cfg.fleet.clusters == 0 &&
                    cfg.net != nullptr),
               "a fleet needs per-cluster shard slices and a wire");
    _ms = std::make_unique<mem::MemorySystem>(cfg.numThreads, cfg.timing,
                                              cfg.caches, cfg.memBanks,
                                              cfg.fleet);
    _ms->setClock(&_eq); // Bank occupancy observes the global clock.
    if (cfg.net)
        _ms->setNet(cfg.net);
    htm::TMConfig tm = cfg.tm;
    if (tm.backoff.seed == 0) {
        // Inherit the cluster seed (plus a policy-private stream tag)
        // so RunConfig::seed alone reproduces the jitter streams.
        tm.backoff.seed = cfg.seed ^ 0xb0ff0ff5eedull;
    }
    _tm = std::make_unique<htm::TMMachine>(_eq, *_ms, tm);
    if (cfg.net)
        _tm->setNet(cfg.net);
    _barrier = std::make_unique<Barrier>(cfg.numThreads);
    for (CoreId i = 0; i < cfg.numThreads; ++i)
        _cores.push_back(std::make_unique<Core>(
            i, ShardRef(_eq, shardOf(i)), *_tm, *_barrier,
            cfg.numThreads, cfg.seed));
    _tm->setRemoteAbortHandler([this](CoreId victim, htm::AbortCause c) {
        _cores[victim]->onRemoteAbort(c);
    });
    if (cfg.sched.enabled) {
        _sched = std::make_unique<ContentionScheduler>(cfg.numShards,
                                                       cfg.sched);
        _tm->setContentionHook([this](CoreId core, Addr key) {
            _sched->observe(shardOf(core), key, _eq.now());
        });
        for (auto &core : _cores)
            core->setDeferHook([this](CoreId c) {
                Addr blame = _tm->abortBlame(c);
                // Predictor-aware skip: a conflict on a repairable-
                // class (symbolically tracked) block is absorbed by
                // pre-commit repair on retry — no de-phasing needed.
                if (_cfg.sched.skipRepairableBlame && blame != 0 &&
                    blame < htm::kTokenBlameBase &&
                    _tm->wouldTrack(blame))
                    return _sched->noteRepairableSkip(shardOf(c));
                return _sched->deferDelay(shardOf(c), blame,
                                          _eq.now());
            });
    }
    if (cfg.traceSink)
        _tm->setTraceSink(cfg.traceSink);
}

void
Cluster::setTraceSink(trace::TraceSink *sink)
{
    _tm->setTraceSink(sink);
}

void
Cluster::start(const Core::ProgramFactory &factory)
{
    for (auto &core : _cores)
        core->start(factory);
}

Cycle
Cluster::run()
{
    Cycle end = _eq.run(_cfg.maxCycles);
    for (auto &core : _cores) {
        if (!core->finished()) {
            warn("core %u did not finish within %llu cycles "
                 "(livelock or watchdog); results are partial",
                 core->id(),
                 static_cast<unsigned long long>(_cfg.maxCycles));
            break;
        }
    }
    return end;
}

TimeBreakdown
Cluster::aggregateBreakdown() const
{
    TimeBreakdown total;
    for (const auto &core : _cores)
        total.merge(core->breakdown());
    return total;
}

CoreStats
Cluster::aggregateStats() const
{
    CoreStats total;
    for (const auto &core : _cores) {
        total.txns += core->stats().txns;
        total.commits += core->stats().commits;
        total.aborts += core->stats().aborts;
        total.finishCycle =
            std::max(total.finishCycle, core->stats().finishCycle);
    }
    return total;
}

CoreStats
Cluster::shardCoreStats(unsigned shard) const
{
    CoreStats total;
    for (const auto &core : _cores) {
        if (core->shard() != shard)
            continue;
        total.txns += core->stats().txns;
        total.commits += core->stats().commits;
        total.aborts += core->stats().aborts;
        total.finishCycle =
            std::max(total.finishCycle, core->stats().finishCycle);
    }
    return total;
}

} // namespace retcon::exec
