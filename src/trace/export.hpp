/**
 * @file
 * Offline trace export: serialize provenance records as JSON Lines
 * for analysis outside the simulator (timeline reconstruction,
 * per-address conflict studies, repair audits). The field-by-field
 * schema is documented in docs/trace-format.md.
 *
 * JSON Lines (one object per line) is chosen over a single array so
 * multi-gigabyte traces stream through line-oriented tools.
 *
 * Sources: a single TraceRecorder's retained ring, or any
 * vector<Record> — e.g. ShardMux::mergedSnapshot(), the globally
 * ordered merge of a sharded run's per-shard rings.
 */

#ifndef RETCON_TRACE_EXPORT_HPP
#define RETCON_TRACE_EXPORT_HPP

#include <ostream>
#include <string>
#include <vector>

#include "trace/recorder.hpp"

namespace retcon::trace {

/** Stable operator spelling ("<", "<=", "==", ...). */
const char *cmpOpName(rtc::CmpOp op);

/**
 * Parse an operator back from its spelling. @return false (leaving
 * @p out untouched) on unknown spellings — the trace loader's
 * corrupted-input detection path (src/query/loader).
 */
bool cmpOpFromName(const char *name, rtc::CmpOp &out);

/** Serialize one record as a single JSON object (no newline). */
void writeJsonRecord(const Record &r, std::ostream &os);

/**
 * Window a record stream on the machine-global `seq` key: keep
 * records with seq_min <= seq < seq_max. A bound of 0 means
 * unbounded on that side, so (0, 0) copies everything — the
 * whole-buffer export behaviour. Records are assumed (and kept)
 * in their input order; on a merged snapshot that is ascending seq,
 * so the result is the contiguous sub-trace of the window
 * (docs/trace-format.md, "Windowed export").
 */
std::vector<Record> seqWindow(const std::vector<Record> &recs,
                              std::uint64_t seq_min,
                              std::uint64_t seq_max);

/** Stream retained records as JSON Lines. @return records written. */
std::size_t exportJson(const TraceRecorder &rec, std::ostream &os);
std::size_t exportJson(const std::vector<Record> &recs, std::ostream &os);

/** Write to a file; fatal()s when the file cannot be opened. */
std::size_t exportJsonFile(const TraceRecorder &rec,
                           const std::string &path);
std::size_t exportJsonFile(const std::vector<Record> &recs,
                           const std::string &path);

} // namespace retcon::trace

#endif // RETCON_TRACE_EXPORT_HPP
