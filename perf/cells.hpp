/**
 * @file
 * Benchmark workloads as lists of cells, and the two ways to execute a
 * cell: through api::runOnce (the measured path), or composed from the
 * same public calls runOnce makes (the traced path, which puts spans
 * around workload setup, Cluster::run, validation and stream close).
 *
 * A cell's simulated outcome is summarised as a fingerprint; the
 * benchmark fails a cell whose fingerprint differs between repeats or
 * between the two execution paths.
 */

#ifndef RETCON_PERF_CELLS_HPP
#define RETCON_PERF_CELLS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "query/replay.hpp"

namespace retcon::perf {

/** One runOnce configuration of a workload. */
struct Cell {
    std::string id;
    api::RunConfig cfg;
    /** A sequential baseline: priced, but not a measured machine. */
    bool baseline = false;
    /** Index of this cell's sequential baseline cell, or -1. */
    int seqCell = -1;
    /** Counts into sim_speedup_geomean (seq cycles / cycles). */
    bool inSpeedup = false;
    /** Vacuity: the interconnect must carry traffic in this cell. */
    bool needsNet = false;
    /** Streams a live .rtt file that is read back afterwards. */
    bool streamed() const { return !cfg.trace.streamPath.empty(); }
};

/** Names of the benchmark workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * The cells of @p workload at @p seed, or an empty list for an
 * unknown name. Streamed cells write under @p tmp_dir.
 */
std::vector<Cell> makeCells(const std::string &workload,
                            std::uint64_t seed,
                            const std::string &tmp_dir);

/** Simulated outcome of a run; host-side fields are excluded. */
using Fingerprint = std::vector<std::uint64_t>;
Fingerprint fingerprint(const api::RunResult &r);

/** One execution of a cell with its output checks. */
struct CellRun {
    api::RunResult result;
    query::StreamValidateResult stream;
    double seconds = 0;         ///< Whole cell, incl. stream read-back.
    double validateSeconds = 0; ///< validateStreamFile only.
    std::vector<std::string> failures;
};

/** Run @p cell through api::runOnce, then check its outputs. */
CellRun runCell(const Cell &cell);

/**
 * Output checks shared by both execution paths: workload validation,
 * the reenactment audit, the streamed file's verdict and record count,
 * and arrival conservation.
 */
std::vector<std::string> checkOutputs(const Cell &cell,
                                      const api::RunResult &r,
                                      const query::StreamValidateResult *s);

/**
 * A cell composed from the calls api::runOnce makes. Construction is
 * the set-up (scenario plan, workload, fleet, trace sinks, workload
 * setup, core start); run(), validate() and closeStream() are the
 * remaining phases, each callable under its own span.
 */
class StagedCell
{
  public:
    explicit StagedCell(const api::RunConfig &cfg);
    ~StagedCell();
    StagedCell(const StagedCell &) = delete;
    StagedCell &operator=(const StagedCell &) = delete;

    void run();
    void validate();
    void closeStream();

    /** The RunResult fields runOnce would report (after all phases). */
    api::RunResult result();

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace retcon::perf

#endif // RETCON_PERF_CELLS_HPP
