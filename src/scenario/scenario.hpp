/**
 * @file
 * Scenario registry: named traffic/fault shapes for the service
 * workload (ROADMAP "scenario diversity" item).
 *
 * A Scenario is one row of a small mode table — `{name, description,
 * setup, update}` — the classic simulator mode-table idiom. `setup`
 * derives a pure-data Plan from the run's environment (seed, scale,
 * thread count, cluster count); `update` is the per-cycle driver that
 * turns (plan, now) into the instantaneous drive state: the arrival-
 * rate multiplier for open-loop traffic and whether the core-stall
 * fault window is currently active. Three orthogonal families compose
 * into a plan:
 *
 *  - **Open-loop arrivals** (Poisson, bursty on/off, diurnal ramp):
 *    workers stop closing the loop and instead pull requests from a
 *    modeled per-worker arrival queue (scenario/arrivals.hpp) with
 *    backlog, latency, and tail-drop accounting.
 *  - **Mid-run shifts**: the request-class mix rotates and/or the
 *    Zipfian hotset migrates at phase boundaries, each boundary
 *    emitted as a trace annotation so retcon-query can segment the
 *    run by phase (docs/trace-query.md).
 *  - **Faults**: a shard's cores stalling for periodic windows, an
 *    address slice (one directory bank's worth) running at k-times
 *    occupancy, an interconnect link degrading. Fault windows are
 *    periodic and derived deterministically from RunConfig::seed, so
 *    they engage at any workload scale.
 *
 * Determinism contract (docs/scenarios.md): every scenario effect is
 * a pure function of simulated state — (seed, cycle, core id, block
 * address) — never of shard assignment or bank count. That keeps
 * every scenario bit-identical across shard counts and (occupancy
 * unmodeled) bank counts, exactly like an unscenario'd run, and lets
 * every scenario run under the full reenactment audit.
 */

#ifndef RETCON_SCENARIO_SCENARIO_HPP
#define RETCON_SCENARIO_SCENARIO_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace retcon::scenario {

/** Run environment a plan is derived from (api::RunConfig excerpt). */
struct Env {
    std::uint64_t seed = 1;
    double scale = 1.0;
    unsigned nthreads = 1; ///< Fleet-wide simulated thread total.
    unsigned clusters = 1;
};

/** How requests arrive at a worker. */
enum class ArrivalKind : std::uint8_t {
    Closed,  ///< Closed loop: next request only after the last one.
    Poisson, ///< Open loop, exponential inter-arrival gaps.
    Bursty,  ///< Open loop, on/off duty cycle (the burstiest shape).
    Diurnal, ///< Open loop, slow triangle ramp trough -> peak -> trough.
};

const char *arrivalKindName(ArrivalKind k);

/** Arrival-process parameters (per worker; see arrivals.hpp). */
struct ArrivalConfig {
    ArrivalKind kind = ArrivalKind::Closed;

    /** Mean inter-arrival gap in cycles at rate multiplier 1.0. */
    double meanGap = 220.0;

    /** Modulation period in cycles (bursty/diurnal; 0 = none). */
    Cycle period = 0;

    /** Bursty: fraction of each period the source is "on". */
    double onFraction = 0.3;

    /** Bursty: relative arrival rate while "off". */
    double offRate = 0.1;

    /** Diurnal: relative arrival rate at the trough. */
    double troughRate = 0.2;

    /** Backlog bound per worker; arrivals beyond it tail-drop. */
    unsigned queueBound = 24;

    bool open() const { return kind != ArrivalKind::Closed; }
};

/** Mid-run shift schedule (phases over each worker's request index). */
struct ShiftConfig {
    /** Phases per worker (1 = stationary, no marks emitted). */
    unsigned phases = 1;

    /** Rotate the request-class mix by one class per phase. */
    bool rotateMix = false;

    /** Shift the Zipfian hotset by keys/phases per phase. */
    bool migrateHotset = false;
};

/**
 * Deterministic fault windows. All three are periodic — active when
 * ((now + offset) mod period) < len — so they engage at any run
 * length; offsets are derived from the seed by setup hooks.
 */
struct FaultConfig {
    /**
     * Core stall: cores with (core mod stallGroupMod == stallVictim)
     * freeze for the remainder of any active window before serving a
     * request — the cores homed on one shard slot of a
     * stallGroupMod-shard cluster, expressed per-core so the effect
     * is identical at every actual shard count.
     */
    bool coreStall = false;
    unsigned stallGroupMod = 4;
    unsigned stallVictim = 0;
    Cycle stallPeriod = 0;
    Cycle stallLen = 0;
    Cycle stallOffset = 0;

    /**
     * Slow bank: accesses homed on one address slice — blocks with
     * (block / kBlockBytes) mod bankSliceMod == bankSliceVictim, i.e.
     * exactly one bank of a bankSliceMod-banked directory — pay
     * bankExtra cycles while the window is active. Keyed on the
     * address, not the configured bank count, so results stay
     * bit-identical across bank counts (mem::MemorySystem).
     */
    bool bankSlow = false;
    unsigned bankSliceMod = 16;
    unsigned bankSliceVictim = 0;
    Cycle bankPeriod = 0;
    Cycle bankLen = 0;
    Cycle bankOffset = 0;
    Cycle bankExtra = 0;

    /**
     * Degraded interconnect link: one directed link (linkSelector mod
     * numLinks, resolved when the fleet is built) multiplies its hop
     * latency by linkLatencyMult during active windows. Inert at
     * clusters == 1 (there is no interconnect to degrade).
     */
    bool linkDegrade = false;
    std::uint64_t linkSelector = 0;
    Cycle linkPeriod = 0;
    Cycle linkLen = 0;
    Cycle linkOffset = 0;
    unsigned linkLatencyMult = 1;
};

/** Everything a scenario decides, as pure data. */
struct Plan {
    ArrivalConfig arrival;
    ShiftConfig shift;
    FaultConfig fault;
};

/** Instantaneous drive state computed by a scenario's update hook. */
struct Drive {
    double rateMult = 1.0; ///< Arrival-rate multiplier at `now`.
    bool stallWindow = false; ///< Core-stall window active at `now`.
};

using SetupFn = void (*)(Plan &plan, const Env &env);
using UpdateFn = void (*)(const Plan &plan, Cycle now, Drive &drive);

/** One mode-table row. */
struct Scenario {
    const char *name;
    const char *description;
    SetupFn setup;
    UpdateFn update;
};

/** The full mode table, in registration order. */
const std::vector<Scenario> &registry();

/** Look up a scenario by name; nullptr on unknown names. */
const Scenario *scenarioByName(const std::string &name);

/** True when ((now + offset) mod period) < len (period 0 = never). */
inline bool
windowActive(Cycle now, Cycle period, Cycle len, Cycle offset)
{
    return period != 0 && (now + offset) % period < len;
}

/**
 * Per-run scenario state: the resolved table row, its plan, and the
 * aggregated worker-side statistics. Owned by api::runOnce, handed to
 * the service workload through WorkloadParams::scenario; workers fold
 * their arrival-source stats in as they finish (coroutine context —
 * serialized by the engine's dispatch order, like all host-side
 * workload accounting).
 */
class Runtime
{
  public:
    struct Stats {
        std::uint64_t injected = 0;  ///< Arrivals that occurred.
        std::uint64_t completed = 0; ///< Arrivals served.
        std::uint64_t dropped = 0;   ///< Tail-dropped at a full backlog.
        std::uint64_t peakBacklog = 0; ///< Max per-worker queue depth.
        std::uint64_t latencySum = 0;  ///< Sum of (serve - arrival).
        std::uint64_t latencyMax = 0;
        std::uint64_t stallHits = 0;   ///< Requests delayed by the
                                       ///< core-stall fault.
        std::uint64_t stallCycles = 0; ///< Cycles lost to stalls.
        std::uint64_t phaseMarks = 0;  ///< Shift annotations emitted.
    };

    Runtime(const Scenario &sc, const Env &env) : _sc(sc), _env(env)
    {
        _plan = Plan{};
        _sc.setup(_plan, env);
    }

    const Scenario &scenario() const { return _sc; }
    const Plan &plan() const { return _plan; }
    const Env &env() const { return _env; }

    /** Rate multiplier at @p now (dispatches the update hook). */
    double
    rateMult(Cycle now) const
    {
        Drive d;
        _sc.update(_plan, now, d);
        return d.rateMult;
    }

    /** Does the core-stall fault apply to @p core at all? */
    bool
    stallsCore(unsigned core) const
    {
        const FaultConfig &f = _plan.fault;
        return f.coreStall &&
               core % f.stallGroupMod == f.stallVictim;
    }

    /**
     * Cycles a stalled core must wait at @p now before serving (0
     * when no window is active): the remainder of the window, so a
     * victim core sleeps through it like a hung shard.
     */
    Cycle
    stallWait(Cycle now) const
    {
        const FaultConfig &f = _plan.fault;
        Drive d;
        _sc.update(_plan, now, d);
        if (!d.stallWindow)
            return 0;
        return f.stallLen - (now + f.stallOffset) % f.stallPeriod;
    }

    /** Fold one worker's arrival/stall accounting into the total. */
    void
    recordWorker(const Stats &w)
    {
        _stats.injected += w.injected;
        _stats.completed += w.completed;
        _stats.dropped += w.dropped;
        _stats.peakBacklog = std::max(_stats.peakBacklog, w.peakBacklog);
        _stats.latencySum += w.latencySum;
        _stats.latencyMax = std::max(_stats.latencyMax, w.latencyMax);
        _stats.stallHits += w.stallHits;
        _stats.stallCycles += w.stallCycles;
        _stats.phaseMarks += w.phaseMarks;
    }

    const Stats &stats() const { return _stats; }

  private:
    const Scenario &_sc;
    Env _env;
    Plan _plan;
    Stats _stats;
};

} // namespace retcon::scenario

#endif // RETCON_SCENARIO_SCENARIO_HPP
