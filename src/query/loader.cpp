#include "query/loader.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "htm/types.hpp"
#include "trace/export.hpp"
#include "trace/stream.hpp"

namespace retcon::query {

namespace {

LoadResult
fail(std::size_t lineno, const std::string &why)
{
    LoadResult r;
    r.ok = false;
    r.error = "line " + std::to_string(lineno) + ": " + why;
    return r;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
}

/** Signed parse (sym deltas can be negative). */
bool
parseI64(const std::string &s, std::int64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
}

/** Find `"key":<number>` in a JSON line; false when absent. */
bool
jsonU64(const std::string &line, const char *key, std::uint64_t &out)
{
    std::string pat = std::string("\"") + key + "\":";
    std::size_t p = line.find(pat);
    if (p == std::string::npos)
        return false;
    p += pat.size();
    std::size_t e = line.find_first_not_of("0123456789", p);
    if (e == std::string::npos)
        e = line.size();
    return parseU64(line.substr(p, e - p), out);
}

/** Signed variant, for sym deltas. */
bool
jsonI64(const std::string &line, const char *key, std::int64_t &out)
{
    std::string pat = std::string("\"") + key + "\":";
    std::size_t p = line.find(pat);
    if (p == std::string::npos)
        return false;
    p += pat.size();
    std::size_t e = p;
    if (e < line.size() && line[e] == '-')
        ++e;
    e = line.find_first_not_of("0123456789", e);
    if (e == std::string::npos)
        e = line.size();
    return parseI64(line.substr(p, e - p), out);
}

/** Find `"key":"<string>"` in a JSON line; false when absent. */
bool
jsonStr(const std::string &line, const char *key, std::string &out)
{
    std::string pat = std::string("\"") + key + "\":\"";
    std::size_t p = line.find(pat);
    if (p == std::string::npos)
        return false;
    p += pat.size();
    std::size_t e = line.find('"', p);
    if (e == std::string::npos)
        return false;
    out = line.substr(p, e - p);
    return true;
}

bool
abortCauseFromName(const std::string &name, std::uint8_t &out)
{
    for (int c = 0; c <= static_cast<int>(htm::AbortCause::Zombie);
         ++c) {
        if (htm::abortCauseName(static_cast<htm::AbortCause>(c)) ==
            name) {
            out = static_cast<std::uint8_t>(c);
            return true;
        }
    }
    return false;
}

} // namespace

LoadResult
loadJson(std::istream &is)
{
    LoadResult result;
    std::string line;
    std::size_t lineno = 0;
    std::uint64_t prevSeq = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line.front() != '{' || line.back() != '}')
            return fail(lineno, "not a JSON object");
        trace::Record r;
        std::uint64_t v = 0;
        std::string s;
        if (!jsonU64(line, "cycle", v))
            return fail(lineno, "missing cycle");
        r.cycle = v;
        if (!jsonU64(line, "seq", r.seq))
            return fail(lineno, "missing seq");
        if (!jsonU64(line, "core", v))
            return fail(lineno, "missing core");
        r.core = static_cast<CoreId>(v);
        if (!jsonStr(line, "kind", s))
            return fail(lineno, "missing kind");
        if (!trace::eventKindFromName(s.c_str(), r.kind))
            return fail(lineno, "unknown kind '" + s + "'");
        if (!jsonU64(line, "addr", r.addr))
            return fail(lineno, "missing addr");
        if (!jsonU64(line, "a", r.a))
            return fail(lineno, "missing a");
        if (!jsonU64(line, "b", r.b))
            return fail(lineno, "missing b");
        jsonU64(line, "vid", r.vid); // Omitted when zero.
        std::size_t symPos = line.find("\"sym\":{");
        if (symPos != std::string::npos) {
            std::string symPart = line.substr(symPos);
            if (!jsonU64(symPart, "root", r.sym.root) ||
                !jsonI64(symPart, "delta", r.sym.delta))
                return fail(lineno, "malformed sym tag");
            r.hasSym = true;
        }
        if (jsonStr(line, "cmp", s) &&
            !trace::cmpOpFromName(s.c_str(), r.cmp))
            return fail(lineno, "unknown cmp '" + s + "'");
        if (r.kind == trace::EventKind::Abort) {
            if (!jsonStr(line, "cause", s) ||
                !abortCauseFromName(s, r.aux))
                return fail(lineno, "missing/unknown abort cause");
        }
        if (r.kind == trace::EventKind::Commit &&
            line.find("\"datm_forwarded\":true") != std::string::npos)
            r.aux |= trace::kCommitAuxDatmForwarded;
        if (r.seq <= prevSeq)
            return fail(lineno, "seq order violated (" +
                                    std::to_string(r.seq) + " after " +
                                    std::to_string(prevSeq) + ")");
        prevSeq = r.seq;
        result.records.push_back(r);
    }
    return result;
}

LoadResult
loadBinary(const std::string &path)
{
    LoadResult result;
    trace::StreamReader reader(path); // Strict: first fault fails.
    if (!reader.ok()) {
        result.ok = false;
        result.error = "cannot open trace file " + path;
        return result;
    }
    trace::Record r;
    trace::StreamFault fault;
    while (true) {
        trace::StreamReader::Status s = reader.next(r, fault);
        if (s == trace::StreamReader::Status::Record) {
            result.records.push_back(r);
            continue;
        }
        if (s == trace::StreamReader::Status::Fault) {
            result.ok = false;
            result.error = fault.describe();
            result.records.clear();
        }
        return result;
    }
}

LoadResult
loadTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        LoadResult r;
        r.ok = false;
        r.error = "cannot open trace file " + path;
        return r;
    }
    int first = is.peek();
    if (first == 'R') { // .rtt binary magic ("RTCSTRM1").
        is.close();
        return loadBinary(path);
    }
    if (first == '{')
        return loadJson(is);
    LoadResult r;
    r.ok = false;
    r.error = path + ": neither .rtt binary nor JSON Lines trace content";
    return r;
}

} // namespace retcon::query
