/**
 * @file
 * Dependence-graph extraction over a recorded provenance stream: the
 * constraint/forward-chain graph the what-if reenactment service walks
 * to bound the reach of a change (src/api/whatif, docs/what-if.md).
 *
 * The stream already *is* a dependence order — machine-global `seq`
 * is the emission order of every observable machine step — so the
 * graph extractor's job is to name the cross-attempt interactions
 * inside it:
 *
 *  - **forward edges**: a DATM `forward` record names its producing
 *    attempt explicitly (producer uid -> consumer uid);
 *  - **overlap edges**: two attempts concurrently touching the same
 *    coherence block — the interaction every conflict, NACK, token
 *    steal, and repair flows through. Detected by walking the stream
 *    in seq order with a per-block set of in-flight touchers;
 *  - **contention markers**: records that only exist because
 *    attempts interacted (`abort`, `token-wait`, `block-lost`,
 *    `forward`).
 *
 * From these the extractor derives the *first-interaction frontier*:
 * the earliest seq at which any cross-attempt interaction is visible.
 * A change that can only act through contention (a backoff policy, a
 * scheduler knob, commit-token arbitration, an occupancy model)
 * provably cannot perturb any record before that frontier — the
 * machine executes identically until the first step where two
 * attempts meet — so the recorded prefix up to the frontier is
 * reusable verbatim (docs/what-if.md, "Reach semantics").
 */

#ifndef RETCON_TRACE_GRAPH_HPP
#define RETCON_TRACE_GRAPH_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/event.hpp"

namespace retcon::trace {

/** Sentinel seq for "no such record exists in the stream". */
inline constexpr std::uint64_t kSeqUnreached = ~std::uint64_t{0};

/** One transaction attempt's interval in the stream. */
struct GraphAttempt {
    std::uint64_t uid = 0;
    CoreId core = 0;
    std::uint64_t beginSeq = 0;
    /** Seq of the commit/abort record; kSeqUnreached while in flight
     *  at end of stream. */
    std::uint64_t endSeq = kSeqUnreached;
    bool committed = false;
    bool aborted = false;
    /** Blocks this attempt touched (tracked or eager). */
    std::vector<Addr> blocks;
};

/** One cross-attempt dependence edge. */
struct GraphEdge {
    enum class Kind : std::uint8_t {
        Forward, ///< DATM value flow: from's store fed to's load.
        Overlap, ///< Both attempts in flight on the same block.
    };
    Kind kind = Kind::Overlap;
    std::uint64_t fromUid = 0;
    std::uint64_t toUid = 0;
    Addr block = 0;        ///< The shared block (Forward: its block).
    std::uint64_t seq = 0; ///< Seq of the record that created the edge.
};

/** The extracted graph plus its reach frontiers. */
struct DepGraph {
    std::unordered_map<std::uint64_t, GraphAttempt> attempts;
    std::vector<GraphEdge> edges;

    /** Seq of the first record in the stream (kSeqUnreached if empty). */
    std::uint64_t firstSeq = kSeqUnreached;
    /**
     * The first-interaction frontier: min seq over every overlap
     * edge, forward record, abort, token-wait, and block-lost.
     * kSeqUnreached when the run is entirely conflict-free.
     */
    std::uint64_t firstContentionSeq = kSeqUnreached;
    /** First `repair` record (reach frontier of repair-path knobs). */
    std::uint64_t firstRepairSeq = kSeqUnreached;
    /** First `forward` record (reach frontier of forward-path knobs). */
    std::uint64_t firstForwardSeq = kSeqUnreached;
};

/**
 * Extract the dependence graph of @p recs. The stream must be in
 * ascending seq order (any merged snapshot or export is).
 */
DepGraph buildDepGraph(const std::vector<Record> &recs);

} // namespace retcon::trace

#endif // RETCON_TRACE_GRAPH_HPP
