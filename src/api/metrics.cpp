#include "api/metrics.hpp"

#include <cstdio>

namespace retcon::api {

namespace {

using R = const RunResult &;
using enum Better;
using enum Gate;

/** One simulated number a run yields: what it is and how to read it
 *  off. Host time is not a row (see kRunSeconds). */
struct Row {
    Metric metric;
    double (*value)(R);
};

template <typename Summary>
double
sum(const std::vector<Summary> &v, std::uint64_t Summary::*field)
{
    double total = 0;
    for (const Summary &s : v)
        total += double(s.*field);
    return total;
}

const Row kRows[] = {
    {{"sim.cycles", "cycles", Lower, Sim},
     [](R r) { return double(r.cycles); }},
    {{"sim_commits_per_kcycle", "1/kcycle", Higher, Sim},
     [](R r) {
         return r.cycles ? 1000.0 * double(r.coreStats.commits) /
                               double(r.cycles)
                         : 0.0;
     }},
    {{"sim.events", "count", Lower, Sim},
     [](R r) { return sum(r.shards, &ShardSummary::queueExecuted); }},
    {{"sim.slips", "count", Lower, Sim},
     [](R r) { return sum(r.shards, &ShardSummary::queueDeferred); }},
    {{"sim.steals", "count", Higher, Sim},
     [](R r) { return sum(r.shards, &ShardSummary::queueStolen); }},
    {{"htm.commits", "count", Higher, Sim},
     [](R r) { return double(r.machineStats.commits); }},
    {{"htm.aborts", "count", Lower, Sim},
     [](R r) { return double(r.machineStats.aborts); }},
    {{"htm.conflicts", "count", Lower, Sim},
     [](R r) { return double(r.machineStats.conflicts); }},
    {{"htm.nacks", "count", Lower, Sim},
     [](R r) { return double(r.machineStats.nacks); }},
    {{"htm.token_waits", "count", Lower, Sim},
     [](R r) { return double(r.machineStats.tokenWaits); }},
    {{"htm.xc_token_waits", "count", Lower, Sim},
     [](R r) { return double(r.machineStats.xcTokenWaits); }},
    {{"htm.backoff_cycles", "cycles", Lower, Sim},
     [](R r) { return double(r.machineStats.backoffCycles); }},
    {{"mem.bank_requests", "count", Lower, Sim},
     [](R r) { return sum(r.banks, &BankSummary::requests); }},
    {{"mem.bank_stall_cycles", "cycles", Lower, Sim},
     [](R r) { return sum(r.banks, &BankSummary::stallCycles); }},
    {{"exec.sched_defers", "count", Lower, Sim},
     [](R r) { return sum(r.shards, &ShardSummary::schedDefers); }},
    {{"net.messages", "count", Lower, Sim},
     [](R r) { return double(r.net.messages); }},
    {{"net.queue_cycles", "cycles", Lower, Sim},
     [](R r) { return double(r.net.queueCycles); }},
    {{"trace.records", "count", Lower, Sim},
     [](R r) { return double(r.traceStream.records); }},
    {{"trace.bytes", "B", Lower, Sim},
     [](R r) { return double(r.traceStream.bytesWritten); }},
    {{"trace.flushes", "count", Lower, Sim},
     [](R r) { return double(r.traceStream.flushes); }},
    {{"scenario.injected", "count", Higher, Exact},
     [](R r) { return double(r.scenario.injected); }},
    {{"scenario.completed", "count", Higher, Exact},
     [](R r) { return double(r.scenario.completed); }},
    {{"scenario.dropped", "count", Lower, Exact},
     [](R r) { return double(r.scenario.dropped); }},
    {{"scenario.peak_backlog", "count", Lower, Exact},
     [](R r) { return double(r.scenario.peakBacklog); }},
    {{"scenario.stall_cycles", "cycles", Lower, Sim},
     [](R r) { return double(r.scenario.stallCycles); }},
    {{"scenario.bank_fault_cycles", "cycles", Lower, Sim},
     [](R r) { return double(r.scenario.bankFaultCycles); }},
};

const char *
betterName(Better b)
{
    return b == Lower ? "lower" : "higher";
}

const char *
gateName(Gate g)
{
    switch (g) {
      case Sim:   return "sim";
      case Exact: return "exact";
      case Host:  return "host";
    }
    return "?";
}

} // namespace

void
MetricsDoc::config(const std::string &key, double value)
{
    _config.emplace_back(key, value);
}

MetricsDoc::Values &
MetricsDoc::point(const std::string &label)
{
    for (auto &[l, values] : _points)
        if (l == label)
            return values;
    return _points.emplace_back(label, Values{}).second;
}

void
MetricsDoc::addRun(const std::string &label, const RunResult &r)
{
    Values &values = point(label);
    for (const Row &row : kRows)
        values.emplace_back(row.metric, row.value(r));
}

void
MetricsDoc::add(const std::string &label, const Metric &m, double value)
{
    point(label).emplace_back(m, value);
}

bool
MetricsDoc::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\"bench\": \"%s\",\n \"config\": {", _bench.c_str());
    const char *sep = "";
    for (const auto &[key, value] : _config) {
        std::fprintf(f, "%s\"%s\": %.12g", sep, key.c_str(), value);
        sep = ", ";
    }
    std::fprintf(f, "},\n \"points\": {");
    sep = "\n";
    for (const auto &[label, values] : _points) {
        std::fprintf(f, "%s  \"%s\": {\"metrics\": {", sep, label.c_str());
        const char *msep = "\n";
        for (const auto &[m, value] : values) {
            std::fprintf(f,
                         "%s   \"%s\": {\"value\": %.12g, \"unit\": \"%s\", "
                         "\"better\": \"%s\", \"gate\": \"%s\"}",
                         msep, m.name, value, m.unit, betterName(m.better),
                         gateName(m.gate));
            msep = ",\n";
        }
        std::fprintf(f, "}}");
        sep = ",\n";
    }
    std::fprintf(f, "}}\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok)
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

} // namespace retcon::api
