/**
 * @file
 * Figure 1: scalability of the aggressive baseline HTM on 32
 * processors, for the eight unmodified workloads. The paper's headline
 * observation: performance is mixed — some workloads scale near
 * linearly while half obtain less than 5x.
 */

#include "bench_common.hpp"

using namespace retcon;
using namespace retcon::bench;

int
main()
{
    printHeader("Figure 1: baseline (eager HTM) speedup over sequential",
                "RETCON (ISCA 2010), Figure 1");
    std::printf("%-12s %12s %12s %10s\n", "workload", "seq cycles",
                "htm cycles", "speedup");
    for (const auto &name : workloads::baseWorkloadNames()) {
        api::RunConfig cfg = baseConfig(name);
        cfg.tm = api::eagerConfig();
        Cycle seq = api::sequentialCycles(cfg);
        api::RunResult r = api::runOnce(cfg);
        flagInvalid(r, name);
        std::printf("%-12s %12llu %12llu %9.2fx\n", name.c_str(),
                    static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(r.cycles),
                    double(seq) / double(r.cycles));
    }
    return exitStatus();
}
