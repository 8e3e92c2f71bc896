#include "api/whatif.hpp"

#include <algorithm>
#include <map>

namespace retcon::api {

WhatIfResult
runWhatIf(const RunConfig &base, const std::vector<KnobChange> &changes)
{
    WhatIfResult out;

    // Both runs record with identical trace settings, each capturing
    // its complete stream live.
    RunConfig rec = base;
    rec.trace.enabled = true;

    RunConfig var = rec;
    out.reach = ReachClass::Nothing;
    for (const KnobChange &c : changes) {
        if (!applyKnob(var, c.knob, c.value)) {
            out.error = knobError(c.knob, c.value, c.knob);
            return out;
        }
        ReachClass rc = classifyKnob(c.knob);
        if (static_cast<int>(rc) > static_cast<int>(out.reach))
            out.reach = rc;
    }

    if (std::string why = checkConfig(rec); !why.empty()) {
        out.error = "base config: " + why;
        return out;
    }
    if (std::string why = checkConfig(var); !why.empty()) {
        out.error = "changed config: " + why;
        return out;
    }

    rec.trace.captureInto = &out.recorded;
    out.baseResult = runOnce(rec);
    var.trace.captureInto = &out.variant;
    out.variantResult = runOnce(var);

    // Reach frontier of the change set, from the recorded graph.
    trace::DepGraph graph = trace::buildDepGraph(out.recorded);
    switch (out.reach) {
      case ReachClass::Nothing:
        out.firstReachableSeq = trace::kSeqUnreached;
        break;
      case ReachClass::Conflicts:
        out.firstReachableSeq = graph.firstContentionSeq;
        break;
      case ReachClass::Repairs:
        out.firstReachableSeq = graph.firstRepairSeq;
        break;
      case ReachClass::Forwards:
        out.firstReachableSeq = graph.firstForwardSeq;
        break;
      case ReachClass::Everything:
        out.firstReachableSeq = graph.firstSeq;
        break;
    }

    // Divergence: first record where the streams differ.
    std::size_t n = std::min(out.recorded.size(), out.variant.size());
    std::size_t firstDiff = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (!trace::recordsIdentical(out.recorded[i], out.variant[i])) {
            firstDiff = i;
            break;
        }
    }
    out.bitIdentical = firstDiff == n &&
                       out.recorded.size() == out.variant.size();
    out.diverged = !out.bitIdentical;
    // Every recorded record before the frontier must precede the
    // first difference; this is where a misclassified knob shows.
    out.reachHeld = firstDiff >= out.recorded.size() ||
                    out.recorded[firstDiff].seq >= out.firstReachableSeq;
    if (out.diverged) {
        if (firstDiff < out.recorded.size())
            out.firstDivergentSeq = out.recorded[firstDiff].seq;
        else if (firstDiff < out.variant.size())
            out.firstDivergentSeq = out.variant[firstDiff].seq;
        // (one stream is a strict prefix of the other otherwise —
        // divergence starts past the shorter stream's end)
        else if (!out.recorded.empty())
            out.firstDivergentSeq = out.recorded.back().seq + 1;
    }

    // Per-block churn: which addresses the change actually moved.
    std::map<Addr, std::int64_t> delta;
    for (const trace::Record &r : out.recorded)
        --delta[blockAddr(r.addr)];
    for (const trace::Record &r : out.variant)
        ++delta[blockAddr(r.addr)];
    for (const auto &[block, d] : delta)
        if (d != 0)
            out.blockDeltas.emplace_back(block, d);
    std::sort(out.blockDeltas.begin(), out.blockDeltas.end(),
              [](const auto &x, const auto &y) {
                  auto ax = x.second < 0 ? -x.second : x.second;
                  auto ay = y.second < 0 ? -y.second : y.second;
                  return ax != ay ? ax > ay : x.first < y.first;
              });

    // The variant must be a coherent history: reenact it offline.
    out.reenact = query::replayValidate(out.variant);

    out.ok = true;
    return out;
}

} // namespace retcon::api
