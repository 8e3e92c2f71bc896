/**
 * @file
 * Shared scaffolding for the paper-reproduction bench binaries.
 *
 * Every bench accepts two environment overrides:
 *   RETCON_SCALE    input-size multiplier (default 0.4)
 *   RETCON_THREADS  simulated core count  (default 32, as in Table 1)
 * A value that is not a number > 0 (scale) or an integer 1-64
 * (threads) exits 2 naming the variable (api/config.hpp).
 */

#ifndef RETCON_BENCH_COMMON_HPP
#define RETCON_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/config.hpp"

namespace retcon::bench {

/** @p workload at the Table 1 defaults plus the overrides, checked
 *  by the knob table and api::checkConfig (exit 2 on a bad one). */
inline api::RunConfig
baseConfig(const std::string &workload)
{
    api::RunConfig cfg;
    cfg.workload = workload;
    cfg.nthreads = 32;
    cfg.scale = 0.4;
    if (const char *s = std::getenv("RETCON_THREADS"))
        api::applyKnobOrExit(cfg, "nthreads", "RETCON_THREADS", s);
    if (const char *s = std::getenv("RETCON_SCALE"))
        api::applyKnobOrExit(cfg, "scale", "RETCON_SCALE", s);
    api::checkConfigOrExit(cfg);
    return cfg;
}

inline void
printHeader(const char *experiment, const char *paper_ref)
{
    // Built first, so a bad override exits before any output.
    const api::RunConfig cfg = baseConfig(api::RunConfig{}.workload);
    std::printf("==================================================\n");
    std::printf("%s\n", experiment);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("machine: %u cores, scale %.2f "
                "(RETCON_THREADS / RETCON_SCALE to override)\n",
                cfg.nthreads, cfg.scale);
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
