/**
 * @file
 * Figure 10: execution-time breakdown for eager / lazy-vb / RetCon,
 * normalized to the eager baseline. The paper's observation: RETCON
 * "completely eliminates time spent in conflicts" on the abort-bound
 * auxiliary-data workloads, and most of the savings come from repair
 * (not from laziness/value-based detection alone — compare lazy-vb).
 */

#include "bench_common.hpp"

using namespace retcon;
using namespace retcon::bench;

int
main()
{
    printHeader("Figure 10: time breakdown normalized to eager",
                "RETCON (ISCA 2010), Figure 10");
    std::printf("%-18s %-9s %8s %8s %8s %8s %9s\n", "workload",
                "config", "busy", "barrier", "conflict", "other",
                "runtime");
    for (const auto &name : workloads::workloadNames()) {
        if (name == "bayes")
            continue;
        api::RunConfig cfg = baseConfig(name);
        double eager_cycles = 0;
        for (auto &[label, tm] : api::paperConfigs()) {
            cfg.tm = tm;
            api::RunResult r = api::runOnce(cfg);
            flagInvalid(r, name);
            if (eager_cycles == 0)
                eager_cycles = double(r.cycles);
            double norm = double(r.cycles) / eager_cycles;
            double total = r.breakdown.total();
            std::printf(
                "%-18s %-9s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.2fx\n",
                name.c_str(), label,
                100 * r.breakdown.busy / total,
                100 * r.breakdown.barrier / total,
                100 * r.breakdown.conflict / total,
                100 * r.breakdown.other / total, norm);
            std::fflush(stdout);
        }
    }
    return exitStatus();
}
