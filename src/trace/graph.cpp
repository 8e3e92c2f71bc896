#include "trace/graph.hpp"

#include <algorithm>

namespace retcon::trace {

namespace {

/** Does this record touch a coherence block through its addr? */
bool
touchesBlock(EventKind k)
{
    switch (k) {
      case EventKind::Load:
      case EventKind::SymLoad:
      case EventKind::Store:
      case EventKind::SymStore:
      case EventKind::Freeze:
      case EventKind::Pin:
      case EventKind::Constraint:
      case EventKind::Forward:
      case EventKind::Repair:
      case EventKind::BlockLost:
        return true;
      default:
        return false;
    }
}

/** Does this record only exist because attempts interacted? */
bool
contentionMarker(EventKind k)
{
    switch (k) {
      case EventKind::Forward:
      case EventKind::TokenWait:
      case EventKind::BlockLost:
      case EventKind::Abort:
        return true;
      default:
        return false;
    }
}

void
lower(std::uint64_t &frontier, std::uint64_t seq)
{
    if (seq < frontier)
        frontier = seq;
}

} // namespace

DepGraph
buildDepGraph(const std::vector<Record> &recs)
{
    DepGraph g;
    if (recs.empty())
        return g;
    g.firstSeq = recs.front().seq;

    // Core -> uid of its in-flight attempt (0 = idle).
    std::unordered_map<CoreId, std::uint64_t> inFlight;
    // Block -> uids of in-flight attempts that touched it.
    std::unordered_map<Addr, std::vector<std::uint64_t>> touchers;

    for (const Record &r : recs) {
        if (contentionMarker(r.kind))
            lower(g.firstContentionSeq, r.seq);
        if (r.kind == EventKind::Repair)
            lower(g.firstRepairSeq, r.seq);
        if (r.kind == EventKind::Forward)
            lower(g.firstForwardSeq, r.seq);

        if (r.kind == EventKind::TxBegin) {
            std::uint64_t uid = r.b;
            inFlight[r.core] = uid;
            GraphAttempt &at = g.attempts[uid];
            at.uid = uid;
            at.core = r.core;
            at.beginSeq = r.seq;
            continue;
        }

        auto fit = inFlight.find(r.core);
        std::uint64_t uid = fit == inFlight.end() ? 0 : fit->second;

        if (r.kind == EventKind::Commit || r.kind == EventKind::Abort) {
            if (uid != 0) {
                GraphAttempt &at = g.attempts[uid];
                at.endSeq = r.seq;
                at.committed = r.kind == EventKind::Commit;
                at.aborted = r.kind == EventKind::Abort;
                for (Addr b : at.blocks) {
                    auto &v = touchers[b];
                    v.erase(std::remove(v.begin(), v.end(), uid),
                            v.end());
                }
                inFlight.erase(r.core);
            }
            continue;
        }

        if (uid == 0 || !touchesBlock(r.kind))
            continue;

        GraphAttempt &at = g.attempts[uid];
        Addr block = blockAddr(r.addr);
        auto &present = touchers[block];
        bool firstTouch = std::find(at.blocks.begin(), at.blocks.end(),
                                    block) == at.blocks.end();
        if (firstTouch) {
            // One overlap edge per (other attempt, block) pair: every
            // attempt already in flight on this block now shares it
            // with us.
            for (std::uint64_t other : present) {
                g.edges.push_back({GraphEdge::Kind::Overlap, other,
                                   uid, block, r.seq});
                lower(g.firstContentionSeq, r.seq);
            }
            present.push_back(uid);
            at.blocks.push_back(block);
        }
        if (r.kind == EventKind::Forward && r.b != 0)
            g.edges.push_back(
                {GraphEdge::Kind::Forward, r.b, uid, block, r.seq});
    }
    return g;
}

} // namespace retcon::trace
