/**
 * @file
 * Shared scaffolding for the paper-reproduction bench binaries.
 *
 * Every bench accepts two environment overrides:
 *   RETCON_SCALE    input-size multiplier (default 0.4)
 *   RETCON_THREADS  simulated core count  (default 32, as in Table 1)
 * A value that is not a number > 0 (scale) or an integer 1-64
 * (threads) exits 2 naming the variable.
 */

#ifndef RETCON_BENCH_COMMON_HPP
#define RETCON_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/parse.hpp"
#include "api/runner.hpp"

namespace retcon::bench {

inline double
envScale()
{
    const char *s = std::getenv("RETCON_SCALE");
    return s ? api::positiveOrExit("RETCON_SCALE", s) : 0.4;
}

inline unsigned
envThreads()
{
    const char *s = std::getenv("RETCON_THREADS");
    return s ? api::countOrExit("RETCON_THREADS", s, 1, 64) : 32;
}

inline api::RunConfig
baseConfig(const std::string &workload)
{
    api::RunConfig cfg;
    cfg.workload = workload;
    cfg.nthreads = envThreads();
    cfg.scale = envScale();
    return cfg;
}

inline void
printHeader(const char *experiment, const char *paper_ref)
{
    // Parsed first, so a bad override exits before any output.
    const unsigned threads = envThreads();
    const double scale = envScale();
    std::printf("==================================================\n");
    std::printf("%s\n", experiment);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("machine: %u cores, scale %.2f "
                "(RETCON_THREADS / RETCON_SCALE to override)\n",
                threads, scale);
    std::printf("==================================================\n");
}

inline void
flagInvalid(const api::RunResult &r, const std::string &workload)
{
    if (!r.validation.ok)
        std::printf("!! %s failed validation: %s\n", workload.c_str(),
                    r.validation.note.c_str());
}

} // namespace retcon::bench

#endif // RETCON_BENCH_COMMON_HPP
