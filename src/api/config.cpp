#include "api/config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "api/datm_envelope.hpp"
#include "api/parse.hpp"
#include "net/interconnect.hpp"
#include "scenario/scenario.hpp"

namespace retcon::api {

namespace {

/// Fleet-wide limits: the sharer and commit-token masks are 64 bits.
constexpr unsigned kMaxCores = 64;
constexpr unsigned kMaxBanks = 64;

using V = const std::string &;

/** Set @p field to all of @p s as an integer in [@p lo, @p hi]. */
template <typename T>
bool
setCount(T &field, V s, std::uint64_t lo = 0,
         std::uint64_t hi = std::numeric_limits<T>::max())
{
    std::uint64_t u = 0;
    if (!parseU64(s, u) || u < lo || u > hi)
        return false;
    field = static_cast<T>(u);
    return true;
}

/** Smallest double > 0: the low end of "a number > 0". */
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/** Set @p field to all of @p s as a number in [@p lo, @p hi]. */
bool
setReal(double &field, V s, double lo, double hi = HUGE_VAL)
{
    double d = 0.0;
    if (!parseDouble(s, d) || d < lo || d > hi)
        return false;
    field = d;
    return true;
}

bool
setFlag(bool &field, V s)
{
    bool on = s == "1" || s == "true" || s == "on";
    if (!on && s != "0" && s != "false" && s != "off")
        return false;
    field = on;
    return true;
}

/** Set @p field to the value of E in [0, @p last] named @p s. */
template <typename E>
bool
setNamed(E &field, V s, E last, const char *(*name)(E))
{
    for (int v = 0; v <= static_cast<int>(last); ++v) {
        if (s == name(static_cast<E>(v))) {
            field = static_cast<E>(v);
            return true;
        }
    }
    return false;
}

/** One run option. `apply` range-checks and sets the field, leaving
 *  the config untouched on failure; `expects` words the range. */
struct Knob {
    const char *name;
    const char *expects;
    ReachClass reach;
    bool (*apply)(RunConfig &, V);
};

using C = RunConfig &;
using enum ReachClass;

const Knob kKnobs[] = {
    {"seed", "an integer", Everything,
     [](C c, V s) { return setCount(c.seed, s); }},
    {"workload", "a workload name", Everything,
     [](C c, V s) { return !s.empty() && (c.workload = s, true); }},
    {"nthreads", "an integer 1-64", Everything,
     [](C c, V s) { return setCount(c.nthreads, s, 1, kMaxCores); }},
    {"scale", "a number > 0", Everything,
     [](C c, V s) { return setReal(c.scale, s, kPositive); }},
    {"servicePartitions", "an integer 1-64", Everything,
     [](C c, V s) { return setCount(c.servicePartitions, s, 1, 64); }},
    {"clusters", "an integer 1-64", Everything,
     [](C c, V s) { return setCount(c.clusters, s, 1, kMaxCores); }},
    {"crossClusterFraction", "a number 0-1", Everything,
     [](C c, V s) { return setReal(c.crossClusterFraction, s, 0, 1); }},
    {"tm.mode", "serial|eager|lazy|lazy-vb|retcon|datm", Everything,
     [](C c, V s) {
         return setNamed(c.tm.mode, s, htm::TMMode::DATM, htm::tmModeName);
     }},
    {"backoff", "none|linear|exp|prop", Conflicts,
     [](C c, V s) {
         return setNamed(c.tm.backoff.policy, s,
                         htm::BackoffPolicy::ConflictProportional,
                         htm::backoffPolicyName);
     }},
    {"contentionSched", "0|1", Conflicts,
     [](C c, V s) { return setFlag(c.contentionSched, s); }},
    {"commitTokenArbitration", "0|1", Conflicts,
     [](C c, V s) { return setFlag(c.tm.commitTokenArbitration, s); }},
    {"memBankOccupancy", "an integer", Conflicts,
     [](C c, V s) { return setCount(c.memBankOccupancy, s); }},
    {"shardBandwidth", "a 32-bit integer, 0 = unlimited", Conflicts,
     [](C c, V s) { return setCount(c.shardBandwidth, s); }},
    {"faultInjectRepairXor", "an integer", Repairs,
     [](C c, V s) { return setCount(c.tm.faultInjectRepairXor, s); }},
    {"faultInjectForwardXor", "an integer", Forwards,
     [](C c, V s) { return setCount(c.tm.faultInjectForwardXor, s); }},
    {"shards", "an integer 1-64", Nothing,
     [](C c, V s) { return setCount(c.shards, s, 1, kMaxCores); }},
    {"memBanks", "an integer 1-64", Nothing,
     [](C c, V s) { return setCount(c.memBanks, s, 1, kMaxBanks); }},
};

const Knob *
findKnob(const std::string &name)
{
    for (const Knob &k : kKnobs)
        if (name == k.name)
            return &k;
    return nullptr;
}

[[gnu::format(printf, 1, 2)]] std::string
formatReason(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace

const char *
reachClassName(ReachClass c)
{
    switch (c) {
      case ReachClass::Nothing:    return "nothing";
      case ReachClass::Conflicts:  return "conflicts";
      case ReachClass::Repairs:    return "repairs";
      case ReachClass::Forwards:   return "forwards";
      case ReachClass::Everything: return "everything";
    }
    return "?";
}

ReachClass
classifyKnob(const std::string &knob)
{
    const Knob *k = findKnob(knob);
    return k ? k->reach : ReachClass::Everything;
}

bool
applyKnob(RunConfig &cfg, const std::string &knob,
          const std::string &value)
{
    const Knob *k = findKnob(knob);
    return k && k->apply(cfg, value);
}

std::string
knobError(const std::string &knob, const std::string &value,
          const std::string &what)
{
    const Knob *k = findKnob(knob);
    if (!k)
        return "unknown knob '" + knob + "'";
    return "bad value '" + value + "' for " + what + " (" + k->expects +
           ")";
}

std::string
checkConfig(const RunConfig &cfg)
{
    // 64-bit products: clusters is unchecked until here. A product of
    // at least 1 needs clusters >= 1 and bounds each cluster too.
    const std::uint64_t cores = std::uint64_t{cfg.nthreads} * cfg.clusters;
    const std::uint64_t banks = std::uint64_t{cfg.memBanks} * cfg.clusters;
    if (cores < 1 || cores > kMaxCores)
        return formatReason("nthreads x clusters = %u x %u = %llu cores, "
                            "outside the machine's 1-%u",
                            cfg.nthreads, cfg.clusters,
                            (unsigned long long)cores, kMaxCores);
    if (cfg.shards < 1 || cfg.shards > cfg.nthreads)
        return formatReason("shards %u is outside 1..nthreads (%u)",
                            cfg.shards, cfg.nthreads);
    if (banks < 1 || banks > kMaxBanks)
        return formatReason("memBanks x clusters = %u x %u = %llu banks, "
                            "outside the machine's 1-%u",
                            cfg.memBanks, cfg.clusters,
                            (unsigned long long)banks, kMaxBanks);
    if (!(cfg.crossClusterFraction >= 0.0 &&
          cfg.crossClusterFraction <= 1.0))
        return formatReason("crossClusterFraction %g is outside 0-1",
                            cfg.crossClusterFraction);

    const auto &names = workloads::extendedWorkloadNames();
    if (std::find(names.begin(), names.end(), cfg.workload) ==
        names.end())
        return "workload '" + cfg.workload + "' is unknown";
    if (!cfg.scenario.empty()) {
        if (!scenario::scenarioByName(cfg.scenario))
            return "scenario '" + cfg.scenario +
                   "' is unknown (sweep_main --list-scenarios prints "
                   "the registry)";
        if (cfg.workload != "service")
            return "scenario '" + cfg.scenario +
                   "' needs the service workload, not " + cfg.workload;
    }
    net::Topology topo;
    if (!setNamed(topo, cfg.netTopology, net::Topology::Ring,
                  net::topologyName))
        return "netTopology '" + cfg.netTopology +
               "' is unknown (crossbar|ring)";

    if (cfg.tm.mode == htm::TMMode::DATM &&
        !datmSupported(cfg.workload, cfg.scale,
                       static_cast<unsigned>(cores), cfg.clusters))
        return formatReason("tm.mode datm is outside the DATM envelope "
                            "for %s at scale %g on %u threads x %u "
                            "cluster%s (%s)",
                            cfg.workload.c_str(), cfg.scale, cfg.nthreads,
                            cfg.clusters, cfg.clusters == 1 ? "" : "s",
                            datmEnvelopeRow(cfg.workload)->reason);
    return {};
}

void
applyKnobOrExit(RunConfig &cfg, const char *knob, const char *what,
                const char *value)
{
    if (applyKnob(cfg, knob, value))
        return;
    std::fprintf(stderr, "%s\n", knobError(knob, value, what).c_str());
    std::exit(2);
}

void
checkConfigOrExit(const RunConfig &cfg)
{
    std::string why = checkConfig(cfg);
    if (why.empty())
        return;
    std::fprintf(stderr, "%s\n", why.c_str());
    std::exit(2);
}

} // namespace retcon::api
