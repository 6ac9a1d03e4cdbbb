#pragma once

// Parser for `radiomc.trace/v2` JSONL streams (the format written by
// telemetry::JsonlTraceSink) into the typed Trace of trace_event.h.
//
// The reader is strict about what matters and lenient about the rest:
//  * the first line MUST be a schema record with the exact version string
//    — a stream written by a different schema generation is rejected, not
//    guessed at;
//  * unknown keys on known records are ignored (the writer may grow
//    fields), but unknown "ev" values and malformed JSON are errors with a
//    line number, because a partially-understood trace would silently
//    corrupt every downstream statistic.
//
// Each line is parsed by the shared strict JSON parser
// (telemetry/json_value.h); this reader adds the typed field checks. A
// known key that is present but not of its field's type — or an integer
// too wide for its field (32 bits for node/channel ids, seq, txn,
// decay_len and each "levels" element; 64 for slots and counts) — fails
// the line and names the key. Unknown keys may hold any JSON value.

#include <istream>
#include <string>

#include "analysis/trace_event.h"

namespace radiomc::analysis {

struct TraceReadResult {
  bool ok = false;
  std::string error;      ///< non-empty iff !ok
  std::uint64_t line_no = 0;  ///< 1-based line of the error (0 = file-level)
  Trace trace;            ///< valid iff ok
};

/// Parses a whole stream. Blank lines are permitted and skipped.
TraceReadResult read_trace(std::istream& in);

/// Opens `path` and parses it; a missing/unreadable file is a file-level
/// error, not an exception.
TraceReadResult read_trace_file(const std::string& path);

}  // namespace radiomc::analysis
