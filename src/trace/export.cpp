#include "trace/export.hpp"

#include <fstream>
#include <string_view>

#include "sim/logging.hpp"

namespace retcon::trace {

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

std::vector<Record>
seqWindow(const std::vector<Record> &recs, std::uint64_t seq_min,
          std::uint64_t seq_max)
{
    std::vector<Record> out;
    for (const Record &r : recs) {
        if (r.seq < seq_min)
            continue;
        if (seq_max != 0 && r.seq >= seq_max)
            continue;
        out.push_back(r);
    }
    return out;
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
exportJson(const TraceRecorder &rec, std::ostream &os)
{
    std::size_t n = 0;
    rec.forEach([&](const Record &r) {
        writeJsonRecord(r, os);
        os << '\n';
        ++n;
    });
    return n;
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

namespace {

template <typename Source>
std::size_t
exportJsonToFile(const Source &src, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open trace export file %s", path.c_str());
    return exportJson(src, os);
}

} // namespace

std::size_t
exportJsonFile(const TraceRecorder &rec, const std::string &path)
{
    return exportJsonToFile(rec, path);
}

std::size_t
exportJsonFile(const std::vector<Record> &recs, const std::string &path)
{
    return exportJsonToFile(recs, path);
}

} // namespace retcon::trace
