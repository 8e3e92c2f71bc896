/**
 * @file
 * Figure 3 + Figure 4: scalability of all workload variants on the
 * baseline (eager) system before and after the paper's software
 * restructurings, with the execution-time breakdown that identifies
 * *why* each workload scales or not (busy / barrier / conflict /
 * other).
 *
 * The key observations to reproduce: the _opt restructurings lift
 * intruder and vacation dramatically; the remaining laggards
 * (genome-sz, *-sz, python_opt, yada) are conflict-bound — on
 * auxiliary data for the -sz and python variants (which §4's RETCON
 * then repairs), and on algorithm-central data for yada.
 */

#include "bench_common.hpp"

using namespace retcon;
using namespace retcon::bench;

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "--list") {
        std::printf("Table 2 workloads:\n");
        for (const auto &name : workloads::workloadNames())
            std::printf("  %s\n", name.c_str());
        return 0;
    }

    printHeader("Figures 3+4: software restructurings and time "
                "breakdown (baseline HTM)",
                "RETCON (ISCA 2010), Figures 3 and 4");
    std::printf("%-18s %9s | %6s %6s %6s %6s\n", "workload", "speedup",
                "busy", "barr", "conf", "other");
    for (const auto &name : workloads::workloadNames()) {
        if (name == "bayes")
            continue;
        api::RunConfig cfg = baseConfig(name);
        cfg.tm = api::eagerConfig();
        Cycle seq = api::sequentialCycles(cfg);
        api::RunResult r = api::runOnce(cfg);
        flagInvalid(r, name);
        double total = r.breakdown.total();
        std::printf("%-18s %8.2fx | %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
                    name.c_str(), double(seq) / double(r.cycles),
                    100 * r.breakdown.busy / total,
                    100 * r.breakdown.barrier / total,
                    100 * r.breakdown.conflict / total,
                    100 * r.breakdown.other / total);
        std::fflush(stdout);
    }
    return exitStatus();
}
