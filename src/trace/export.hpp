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
 * Source: a captured record stream, e.g. the one
 * api::TraceOptions::captureInto collects live (trace::VectorSink).
 */

#ifndef RETCON_TRACE_EXPORT_HPP
#define RETCON_TRACE_EXPORT_HPP

#include <ostream>
#include <string>
#include <vector>

#include "trace/event.hpp"

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

/** Stream records as JSON Lines. @return records written. */
std::size_t exportJson(const std::vector<Record> &recs, std::ostream &os);

/** Write to a file; fatal()s when the file cannot be opened. */
std::size_t exportJsonFile(const std::vector<Record> &recs,
                           const std::string &path);

} // namespace retcon::trace

#endif // RETCON_TRACE_EXPORT_HPP
