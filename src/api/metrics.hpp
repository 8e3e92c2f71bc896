/**
 * @file
 * The one metrics schema the benches write (docs/repro-guide.md,
 * "Bench baselines"). One table row per simulated number a run yields
 * holds its name, unit, the direction that is better, its gate class
 * and an accessor over RunResult (metrics.cpp). A bench labels each
 * run as a point, adds what no single run yields (a gain, its host
 * time), and writes
 *
 *   {"bench": NAME, "config": {KEY: VALUE, ...},
 *    "points": {LABEL: {"metrics": {NAME: {"value": V, "unit": U,
 *                                          "better": "lower|higher",
 *                                          "gate": "sim|exact|host"}}}}}
 *
 * which is the shape perf/ reports, with BENCHMARK.json's names where
 * the number is the same one. tools/check_bench_regression.py compares
 * two such documents metric by metric, by each metric's gate class.
 */

#ifndef RETCON_API_METRICS_HPP
#define RETCON_API_METRICS_HPP

#include <string>
#include <utility>
#include <vector>

#include "api/runner.hpp"

namespace retcon::api {

enum class Better : std::uint8_t { Lower, Higher };

/** How the bench gate compares a fresh value with its baseline. */
enum class Gate : std::uint8_t {
    Sim,   ///< Simulated: within 2% either way, so 0 must stay 0.
    Exact, ///< Simulated ledger count: equal.
    Host,  ///< Host time: at most 1.6x worse; any gain passes.
};

/** What a number is; the value comes from a run or from the bench. */
struct Metric {
    const char *name;
    const char *unit;
    Better better;
    Gate gate;
};

/**
 * Host wall time of the event loop (RunResult::hostParallel), summed
 * over a bench's runs into one point. A single run of tens of
 * milliseconds varies up to 1.8x between repeats on one machine; the
 * sum of a bench's runs varies far less, so only the sum is gated.
 */
inline constexpr Metric kRunSeconds{"exec.run_s", "s", Better::Lower,
                                    Gate::Host};

/** One bench's metrics document, built point by point. */
class MetricsDoc {
  public:
    explicit MetricsDoc(std::string bench) : _bench(std::move(bench)) {}

    /** A sizing value the gate requires equal (scale, nthreads...). */
    void config(const std::string &key, double value);

    /** Point @p label: every table row, read off @p r. */
    void addRun(const std::string &label, const RunResult &r);

    /** Point @p label: one value no single run yields (a ratio of
     *  two points, or host time summed over runs). */
    void add(const std::string &label, const Metric &m, double value);

    /** Write the document to @p path; false, after a message on
     *  stderr, if it cannot be written. */
    bool write(const std::string &path) const;

  private:
    using Values = std::vector<std::pair<Metric, double>>;
    std::string _bench;
    std::vector<std::pair<std::string, double>> _config;
    std::vector<std::pair<std::string, Values>> _points;

    Values &point(const std::string &label);
};

} // namespace retcon::api

#endif // RETCON_API_METRICS_HPP
