/**
 * @file
 * Offline trace loader: parse a recorded provenance stream back into
 * trace::Record form, from JSON Lines (`exportJson*`,
 * docs/trace-format.md) or the framed binary .rtt stream
 * (docs/streaming.md). JSON Lines holds one object per line; the
 * per-kind decodes re-encode losslessly — `cause` names map back to
 * the aux byte, `datm_forwarded` back to the commit flag bit,
 * `annotation` is the mark's `a` value it was decoded from.
 *
 * Loading is strict: any unparsable line, unknown kind/operator/cause
 * name, or seq-order violation (exports of a merged snapshot are
 * ascending in the machine-global `seq` key) fails the load with a
 * line-numbered diagnostic instead of silently yielding a partial
 * stream — a truncated or hand-edited trace must not masquerade as a
 * recorded run (tests/unit/test_query.cpp pins the negative control).
 */

#ifndef RETCON_QUERY_LOADER_HPP
#define RETCON_QUERY_LOADER_HPP

#include <istream>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace retcon::query {

/** Outcome of a load: the records, or a line-numbered diagnostic. */
struct LoadResult {
    bool ok = true;
    std::string error;
    std::vector<trace::Record> records;
};

/** Parse JSON Lines export output. */
LoadResult loadJson(std::istream &is);

/**
 * Parse a framed binary .rtt stream (docs/streaming.md). Strict like
 * the JSON loader: the first checksum, seq-order, seq-gap (dense
 * streams), truncation, or payload fault fails the load with an
 * offset-precise diagnostic instead of yielding a partial stream.
 */
LoadResult loadBinary(const std::string &path);

/**
 * Load a trace file, dispatching on content: a first byte of 'R' is
 * the .rtt binary magic, a first line starting with '{' is JSON
 * Lines. Fails (ok = false) on unreadable files or unrecognizable
 * content.
 */
LoadResult loadTraceFile(const std::string &path);

} // namespace retcon::query

#endif // RETCON_QUERY_LOADER_HPP
