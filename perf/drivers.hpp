/**
 * @file
 * Per-layer drivers: small fixed loops over one layer's public
 * functions, timed with steady_clock, so a host-time change can be
 * blamed on a layer. Each returns host nanoseconds per operation and
 * reports a broken driver (an operation that did not succeed) through
 * @p failures rather than timing it.
 */

#ifndef RETCON_PERF_DRIVERS_HPP
#define RETCON_PERF_DRIVERS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "api/runner.hpp"

namespace retcon::perf {

/** EventQueue schedule + step with @p depth events pending. */
double queueNsPerEvent(unsigned depth, std::uint64_t events,
                       std::uint64_t seed);

/**
 * One-shard ShardedEventQueue at dispatch bandwidth 1 with @p depth
 * events due each cycle, so every dispatch is preceded by depth - 1
 * slips. Host ns per dispatched event.
 */
double slipNsPerEvent(unsigned depth, std::uint64_t events);

/**
 * Eager TMMachine::txLoad / txStore with @p cores transactions active:
 * shared reads and private writes, so no access conflicts and the time
 * is the conflict check itself plus the cache-hit path.
 */
double txAccessNs(unsigned cores, std::uint64_t accesses,
                  std::vector<std::string> &failures);

/** MemorySystem::access, 32 cores over an L2-resident working set. */
double memAccessNs(std::uint64_t accesses, std::uint64_t seed);

/** Outcome of the trace/query driver. */
struct TraceDriver {
    std::uint64_t records = 0;
    double flushMs = 0;        ///< Live writer's blocked-write time.
    double auditS = 0;         ///< Traced minus untraced event loop.
    double writeNsPerRecord = 0;
    double validateS = 0;      ///< validateStreamFile, one pass.
    double queryNsPerRecord = 0;
};

/**
 * Run @p cfg (an audited, streamed cell) traced and untraced, then
 * rewrite its records with a fresh StreamWriter and validate the
 * rewritten file with query::validateStreamFile.
 */
TraceDriver traceDriver(const api::RunConfig &cfg,
                        const std::string &tmp_dir,
                        std::vector<std::string> &failures);

} // namespace retcon::perf

#endif // RETCON_PERF_DRIVERS_HPP
