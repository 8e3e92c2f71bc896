#include "trace/export.hpp"

#include <fstream>
#include <string_view>

#include "sim/logging.hpp"

namespace retcon::trace {

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::TxBegin: return "begin";
      case EventKind::Load: return "load";
      case EventKind::SymLoad: return "sym-load";
      case EventKind::Store: return "store";
      case EventKind::Forward: return "forward";
      case EventKind::SymStore: return "sym-store";
      case EventKind::Freeze: return "freeze";
      case EventKind::Pin: return "pin";
      case EventKind::Constraint: return "constraint";
      case EventKind::BlockLost: return "block-lost";
      case EventKind::CommitStart: return "commit-start";
      case EventKind::TokenWait: return "token-wait";
      case EventKind::CommitDrain: return "commit-drain";
      case EventKind::Repair: return "repair";
      case EventKind::Commit: return "commit";
      case EventKind::Abort: return "abort";
      case EventKind::UserMark: return "mark";
    }
    return "?";
}

bool
eventKindFromName(const char *name, EventKind &out)
{
    for (int k = 0; k <= static_cast<int>(EventKind::UserMark); ++k) {
        auto kind = static_cast<EventKind>(k);
        if (std::string_view(eventKindName(kind)) == name) {
            out = kind;
            return true;
        }
    }
    return false;
}

const char *
cmpOpName(rtc::CmpOp op)
{
    switch (op) {
      case rtc::CmpOp::LT: return "<";
      case rtc::CmpOp::LE: return "<=";
      case rtc::CmpOp::EQ: return "==";
      case rtc::CmpOp::NE: return "!=";
      case rtc::CmpOp::GE: return ">=";
      case rtc::CmpOp::GT: return ">";
    }
    return "?";
}

bool
cmpOpFromName(const char *name, rtc::CmpOp &out)
{
    for (int op = 0; op <= static_cast<int>(rtc::CmpOp::GT); ++op) {
        auto cmp = static_cast<rtc::CmpOp>(op);
        if (std::string_view(cmpOpName(cmp)) == name) {
            out = cmp;
            return true;
        }
    }
    return false;
}

void
writeJsonRecord(const Record &r, std::ostream &os)
{
    os << "{\"cycle\":" << r.cycle << ",\"seq\":" << r.seq
       << ",\"core\":" << r.core << ",\"kind\":\""
       << eventKindName(r.kind) << "\""
       << ",\"addr\":" << r.addr << ",\"a\":" << r.a << ",\"b\":" << r.b;
    if (r.hasSym) {
        os << ",\"sym\":{\"root\":" << r.sym.root
           << ",\"delta\":" << r.sym.delta << "}";
    }
    if (r.vid != 0)
        os << ",\"vid\":" << r.vid;
    if (r.kind == EventKind::Forward)
        os << ",\"producer_uid\":" << r.b;
    if (r.kind == EventKind::Constraint)
        os << ",\"cmp\":\"" << cmpOpName(r.cmp) << "\"";
    if (r.kind == EventKind::Abort) {
        os << ",\"cause\":\""
           << htm::abortCauseName(static_cast<htm::AbortCause>(r.aux))
           << "\"";
        if (r.addr != 0)
            os << ",\"blame\":" << r.addr;
    }
    if (r.kind == EventKind::Commit)
        os << ",\"datm_forwarded\":"
           << ((r.aux & kCommitAuxDatmForwarded) ? "true" : "false");
    if (r.kind == EventKind::UserMark)
        os << ",\"annotation\":" << r.a;
    os << "}";
}

std::size_t
exportJson(const std::vector<Record> &recs, std::ostream &os)
{
    for (const Record &r : recs) {
        writeJsonRecord(r, os);
        os << '\n';
    }
    return recs.size();
}

std::size_t
exportJsonFile(const std::vector<Record> &recs, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open trace export file %s", path.c_str());
    return exportJson(recs, os);
}

} // namespace retcon::trace
