/**
 * @file
 * The DATM support envelope, as a queryable table.
 *
 * DATM (dependence-aware forwarding) stresses two things the other
 * modes do not: forwarding cascades multiply aborted attempts — and
 * ds::SimAllocator leaks one arena bump per aborted attempt by design
 * — and cascade storms can stop converging inside the cycle bound on
 * workloads with long dataflow chains (yada's mesh epochs). The
 * envelope used to be a hard-coded probe buried in tests/sweep_main
 * (`datmUnsupported()`); it is now owned by the library, asserted by
 * tests/unit/test_scenario.cpp, and *widened* by two per-mode
 * mitigations applied automatically by api::runOnce:
 *
 *  - per-mode arena sizing (arenaBytesFor): DATM runs get 4x the
 *    default per-thread arena, clamped so (nthreads + 1) arenas still
 *    fit one cluster heap region — headroom for the leak-per-abort;
 *  - cascade back-pressure (htm::TMConfig::datmCascadeBackpressure,
 *    on by default): cores aborted by a forwarding cascade delay
 *    their restart exponentially in the cascade streak, breaking the
 *    retry storms that previously kept yada/intruder from converging
 *    at moderate scales.
 *
 * The envelope is keyed on thread count as well as scale: intruder's
 * retry storm at 16 and 32 threads leaks its arena without bound, so
 * no arena size helps there (see the table's reason).
 *
 * Points outside the envelope are *skipped*, never silently shrunk:
 * sweep_main consults datmSupported() and prints the skip with the
 * row's reason.
 */

#ifndef RETCON_API_DATM_ENVELOPE_HPP
#define RETCON_API_DATM_ENVELOPE_HPP

#include <string>
#include <vector>

#include "htm/types.hpp"
#include "sim/types.hpp"

namespace retcon::api {

/** One envelope row; workloads not listed are fully supported. */
struct DatmEnvelopeEntry {
    /** Workload name, or a prefix when `prefix` ("python" covers
     *  python and python_opt). */
    const char *workload;
    bool prefix;

    /** Largest supported scale (0 = unsupported at any scale). */
    double maxScale;

    /** Largest supported fleet-wide thread count. */
    unsigned maxThreads;

    /** Supported on a multi-cluster fleet (clusters > 1)? */
    bool fleetSupported;

    /** Why the bound exists (printed by sweep skips). */
    const char *reason;
};

/** The full envelope table. */
const std::vector<DatmEnvelopeEntry> &datmEnvelope();

/** The envelope row covering @p workload, or null when unlisted. */
const DatmEnvelopeEntry *datmEnvelopeRow(const std::string &workload);

/**
 * True when @p workload under DATM at (@p scale, @p nthreads
 * fleet-wide threads, @p clusters) is inside the supported envelope —
 * i.e. runOnce with the automatic DATM mitigations completes,
 * validates, and audits with zero skipped forwarding chains.
 */
bool datmSupported(const std::string &workload, double scale,
                   unsigned nthreads, unsigned clusters);

/**
 * Per-mode arena sizing: the per-thread arena bytes runOnce hands the
 * workload for @p mode with @p nthreads fleet-wide threads. The
 * default size for every mode but DATM; 4x for DATM, clamped to keep
 * (nthreads + 1) arenas inside one cluster heap region.
 */
Addr arenaBytesFor(htm::TMMode mode, unsigned nthreads);

} // namespace retcon::api

#endif // RETCON_API_DATM_ENVELOPE_HPP
