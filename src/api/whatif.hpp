/**
 * @file
 * What-if reenactment: re-execute a recorded run with one (or a few)
 * changed knobs and report exactly how far the change reached
 * (docs/what-if.md).
 *
 * The engine leans on two properties the rest of the repo already
 * enforces:
 *
 *  1. **Determinism** — a RunConfig reproduces its provenance stream
 *     bit-for-bit (tests/unit/test_sharded_exec, test_trace), so
 *     "replay the run" is just `runOnce` again and divergence between
 *     the recorded and variant streams is attributable to the knob
 *     change alone.
 *
 *  2. **Bounded reach** — each knob is classified by the earliest
 *     machine step it can possibly perturb (ReachClass). A
 *     backoff policy only acts when a NACK or abort happens; the
 *     dependence graph of the recorded stream (trace/graph.hpp) names
 *     the first seq where any cross-attempt interaction exists, so
 *     no record before that frontier may differ. The first
 *     divergence is checked against the frontier, so a misclassified
 *     knob shows up as a failed reach check.
 *
 * The variant stream is then validated offline (query/replay.hpp): it
 * must reenact cleanly.
 */

#ifndef RETCON_API_WHATIF_HPP
#define RETCON_API_WHATIF_HPP

#include <string>
#include <vector>

#include "api/config.hpp"
#include "query/replay.hpp"
#include "trace/graph.hpp"

namespace retcon::api {

/** One knob change, by name (the knob table, api/config.hpp). */
struct KnobChange {
    std::string knob;
    std::string value;
};

/** Everything one what-if reenactment produces. */
struct WhatIfResult {
    bool ok = false; ///< False: see error (bad knob, config rejected).
    std::string error;

    /** The two full streams. */
    std::vector<trace::Record> recorded;
    std::vector<trace::Record> variant;

    /** Reach classification of the change set. */
    ReachClass reach = ReachClass::Everything;
    /** First seq the change could reach (kSeqUnreached = none). */
    std::uint64_t firstReachableSeq = trace::kSeqUnreached;
    /**
     * The reach check, read off the divergence scan: no recorded
     * record before firstReachableSeq differs from the variant's.
     * False would mean a knob was misclassified.
     */
    bool reachHeld = true;

    /** Recorded vs variant, record-by-record. */
    bool bitIdentical = false;
    bool diverged = false;
    /** Recorded-stream seq of the first differing record
     *  (kSeqUnreached when bitIdentical). */
    std::uint64_t firstDivergentSeq = trace::kSeqUnreached;

    /** Per-block record-count delta (variant - recorded), only
     *  blocks whose counts differ, sorted by |delta| descending. */
    std::vector<std::pair<Addr, std::int64_t>> blockDeltas;

    /** Offline reenactment of the variant stream. */
    query::ReplayResult reenact;

    /** Full run outcomes for downstream comparison. */
    RunResult baseResult;
    RunResult variantResult;
};

/**
 * Record @p base (tracing forced on), apply @p changes, re-run, and
 * compare the two complete captured streams. @p base's own trace
 * options are honoured, except captureInto, which the engine owns.
 * Nothing runs unless both configs pass checkConfig.
 */
WhatIfResult runWhatIf(const RunConfig &base,
                       const std::vector<KnobChange> &changes);

} // namespace retcon::api

#endif // RETCON_API_WHATIF_HPP
