/**
 * @file
 * Figure 9: speedup over sequential execution for the three machine
 * configurations — eager (baseline), lazy-vb (value-based validation
 * without repair), and RetCon — across all 14 workload variants.
 *
 * The paper's key results to look for in the output:
 *  - python_opt: no scaling under eager/lazy-vb, near-linear under
 *    RetCon (refcount repair);
 *  - genome-sz / intruder_opt-sz / vacation_opt-sz: RetCon makes them
 *    insensitive to hashtable resizability (compare with the fixed
 *    variants);
 *  - intruder / yada / python: abort-bound but not helped (conflicting
 *    values feed address computation, §5.4);
 *  - lazy-vb alone helps only the vacation variants (false sharing).
 */

#include "bench_common.hpp"

using namespace retcon;
using namespace retcon::bench;

int
main()
{
    printHeader("Figure 9: scalability over sequential execution",
                "RETCON (ISCA 2010), Figure 9");
    std::printf("%-18s %10s %10s %10s\n", "workload", "eager",
                "lazy-vb", "RetCon");
    for (const auto &name : workloads::workloadNames()) {
        if (name == "bayes")
            continue; // Figure 9 excludes bayes (runtime variability).
        api::RunConfig cfg = baseConfig(name);
        Cycle seq = api::sequentialCycles(cfg);
        std::printf("%-18s", name.c_str());
        for (auto &[label, tm] : api::paperConfigs()) {
            cfg.tm = tm;
            api::RunResult r = api::runOnce(cfg);
            flagInvalid(r, name);
            std::printf(" %9.2fx", double(seq) / double(r.cycles));
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    return exitStatus();
}
