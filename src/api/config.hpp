/**
 * @file
 * The one place that knows what a valid RunConfig is. Every run option
 * a user can type (a sweep_main flag, a bench environment variable, a
 * `retcon-query whatif --set`) is a knob: one table row holds its
 * name, the values it accepts, the parser that range-checks and
 * applies them, and its reach class for the what-if engine
 * (api/whatif.hpp). checkConfig owns the rules that span fields and
 * the name checks. A config that passes runs without a user-facing
 * abort; the sim_asserts behind it are invariants.
 */

#ifndef RETCON_API_CONFIG_HPP
#define RETCON_API_CONFIG_HPP

#include <cstdint>
#include <string>

#include "api/runner.hpp"

namespace retcon::api {

/**
 * How early in a recorded stream a knob change can possibly take
 * effect (docs/what-if.md); each knob's class is in its table row.
 * Ordered weakest to strongest; a multi-knob change takes the
 * strongest class among its knobs.
 */
enum class ReachClass : std::uint8_t {
    Nothing,    ///< Host-side only: the stream is bit-identical.
    Conflicts,  ///< From the first-interaction frontier on.
    Repairs,    ///< From the first `repair` record on.
    Forwards,   ///< From the first `forward` record on.
    Everything, ///< Changes the program itself: from the first record.
};

const char *reachClassName(ReachClass c);

/** Reach classification of one knob name (Everything if unknown —
 *  the sound default: never under-estimate reach). */
ReachClass classifyKnob(const std::string &knob);

/**
 * Apply one knob change to @p cfg, by the knob's row in the knob
 * table (config.cpp), which lists every knob with the values it
 * accepts; docs/what-if.md tabulates their reach classes.
 * @return false (cfg untouched) on unknown knob or a value outside
 * the knob's range. Cross-field limits are checkConfig's.
 */
bool applyKnob(RunConfig &cfg, const std::string &knob,
               const std::string &value);

/** Why applyKnob(@p knob, @p value) fails, naming @p what (the knob
 *  or the option or variable mapped onto it): "bad value '<value>'
 *  for <what> (<accepted values>)", or "unknown knob '<knob>'". */
std::string knobError(const std::string &knob, const std::string &value,
                      const std::string &what);

/**
 * Empty when @p cfg is runnable, else the reason, naming the field:
 * fleet-wide cores and banks 1-64, shards 1..nthreads,
 * crossClusterFraction 0-1, the workload, scenario and netTopology
 * names (a scenario needs the service workload), and the DATM
 * envelope (api/datm_envelope.hpp).
 */
std::string checkConfig(const RunConfig &cfg);

/** For command-line programs: applyKnob, or print knobError and
 *  exit 2. */
void applyKnobOrExit(RunConfig &cfg, const char *knob, const char *what,
                     const char *value);

/** For command-line programs: print checkConfig's reason and exit 2
 *  unless it is empty. */
void checkConfigOrExit(const RunConfig &cfg);

} // namespace retcon::api

#endif // RETCON_API_CONFIG_HPP
