#include "analysis/trace_reader.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "telemetry/json_value.h"
#include "telemetry/jsonl_sink.h"

namespace radiomc::analysis {

namespace {

using telemetry::JsonValue;

// --- Typed reads of one record's known keys ----------------------------
//
// An absent key reads as "not there"; the caller decides whether that is
// an error. A present key of the wrong type, or an integer too wide for
// its field, fails the line and names the key: a misread field would
// silently corrupt every downstream statistic.

struct Record {
  const JsonValue& obj;
  Trace* trace;
  std::string error;  // non-empty => fail the line

  /// The value of `key`; nullptr when absent or the line already failed.
  const JsonValue* find(std::string_view key) const {
    return error.empty() ? obj.find(key) : nullptr;
  }

  bool bad(std::string_view what, std::string_view key) {
    error = "malformed JSONL: " + std::string(what) + " for key \"" +
            std::string(key) + "\"";
    return false;
  }

  /// Stores `v` in *out iff it is an exact unsigned integer <= max.
  bool read_uint(const JsonValue& v, std::uint64_t max, std::uint64_t* out,
                 std::string_view what, std::string_view key) {
    if (const std::optional<std::uint64_t> u = v.as_u64(); u && *u <= max) {
      *out = *u;
      return true;
    }
    // max + 1 is 2^32 or 2^64, both exact in a double.
    const bool too_big = v.is_number() &&
                         v.as_double() >= static_cast<double>(max) + 1.0;
    return bad((too_big ? "out of range " : "bad ") + std::string(what), key);
  }

  // Each get() is true iff `key` is present and well-typed; the value
  // then lands in *out.
  template <typename T>
  bool get(std::string_view key, T* out) {
    static_assert(std::is_unsigned_v<T>, "unsigned integer fields only");
    const JsonValue* v = find(key);
    std::uint64_t wide = 0;
    if (v == nullptr || !read_uint(*v, std::numeric_limits<T>::max(), &wide,
                                   "value", key))
      return false;
    *out = static_cast<T>(wide);
    return true;
  }
  bool get(std::string_view key, std::string* out) {
    const JsonValue* v = find(key);
    if (v == nullptr) return false;
    if (!v->is_string()) return bad("bad value", key);
    *out = v->as_string();
    return true;
  }
  bool get(std::string_view key, bool* out) {
    const JsonValue* v = find(key);
    if (v == nullptr) return false;
    if (!v->is_bool()) return bad("bad value", key);
    *out = v->as_bool();
    return true;
  }
  bool get(std::string_view key, std::vector<std::uint32_t>* out) {
    const JsonValue* v = find(key);
    if (v == nullptr) return false;
    if (!v->is_array()) return bad("bad value", key);
    out->reserve(v->items().size());
    for (const JsonValue& item : v->items()) {
      std::uint64_t x = 0;
      if (!read_uint(item, std::numeric_limits<std::uint32_t>::max(), &x,
                     "array element", key))
        return false;
      out->push_back(static_cast<std::uint32_t>(x));
    }
    return true;
  }

  /// get(), with `missing` as the line error when the key is absent.
  template <typename T>
  bool require(std::string_view key, T* out, const char* missing) {
    if (get(key, out)) return true;
    if (error.empty()) error = missing;
    return false;
  }
};

// --- Per-record parsing ------------------------------------------------

void parse_schema(Record& r) {
  TraceSchema& sc = r.trace->schema;
  if (!r.require("v", &sc.version,
                 "schema record missing version string \"v\""))
    return;
  if (sc.version != telemetry::kTraceSchemaVersion) {
    r.error = "unsupported trace schema version \"" + sc.version +
              "\" (this reader understands \"" +
              telemetry::kTraceSchemaVersion + "\")";
    return;
  }
  r.get("protocol", &sc.protocol);
  SlotStructure slots;
  if (r.get("decay_len", &slots.decay_len)) {
    r.get("ack", &slots.ack_subslots);
    r.get("mod3", &slots.mod3_gating);
    sc.slots = slots;
  }
  r.get("agg", &sc.aggregate_every);
  r.get("levels", &sc.levels);
}

void parse_event(Record& r, EvKind kind) {
  TraceEvent e;
  e.ev = kind;
  if (!r.require("t", &e.t, "event record missing slot \"t\"") ||
      !r.require("node", &e.node, "event record missing \"node\""))
    return;
  r.get("ch", &e.ch);

  if (kind == EvKind::kCollision) {
    if (!r.require("txn", &e.tx_neighbors, "coll record missing \"txn\""))
      return;
  } else {
    std::string name;
    if (!r.require("kind", &name, "tx/rx record missing message \"kind\""))
      return;
    std::optional<MsgKind> mk = msg_kind_from_name(name);
    if (!mk) {
      r.error = "unknown message kind \"" + name + "\"";
      return;
    }
    e.kind = *mk;
    r.get("origin", &e.origin);
    r.get("seq", &e.seq);
    r.get("dest", &e.dest);
    r.get("from", &e.from);
    r.get("fp", &e.from_parent);
  }
  if (!r.error.empty()) return;

  Trace& tr = *r.trace;
  tr.last_slot = std::max(tr.last_slot, e.t);
  switch (kind) {
    case EvKind::kTx: ++tr.tx_count; break;
    case EvKind::kRx: ++tr.rx_count; break;
    case EvKind::kCollision:
      if (e.tx_neighbors >= 2) ++tr.collision_count;
      else ++tr.jam_count;
      break;
  }
  tr.events.push_back(e);
}

void parse_agg(Record& r) {
  TraceWindow w;
  if (!r.require("t0", &w.t0, "agg record missing window bounds") ||
      !r.require("t1", &w.t1, "agg record missing window bounds"))
    return;
  r.get("tx", &w.tx);
  r.get("rx", &w.rx);
  r.get("coll", &w.coll);
  r.get("jam", &w.jam);
  if (r.error.empty()) r.trace->windows.push_back(w);
}

void parse_truncated(Record& r) {
  Trace& tr = *r.trace;
  tr.truncated = true;
  r.get("t", &tr.truncated_at);
  r.get("dropped", &tr.dropped_events);
}

void parse_record(Record& r, bool* saw_schema) {
  std::string ev;
  if (!r.require("ev", &ev, "record missing \"ev\" discriminator")) return;
  if (!*saw_schema && ev != "schema") {
    r.error = "first record must be the schema header (got \"" + ev + "\")";
  } else if (ev == "schema") {
    if (*saw_schema) r.error = "duplicate schema record";
    else parse_schema(r);
    *saw_schema = true;
  } else if (ev == "tx") {
    parse_event(r, EvKind::kTx);
  } else if (ev == "rx") {
    parse_event(r, EvKind::kRx);
  } else if (ev == "coll") {
    parse_event(r, EvKind::kCollision);
  } else if (ev == "agg") {
    parse_agg(r);
  } else if (ev == "truncated") {
    parse_truncated(r);
  } else {
    r.error = "unknown record type \"" + ev + "\"";
  }
}

}  // namespace

TraceReadResult read_trace(std::istream& in) {
  TraceReadResult res;
  std::string line;
  std::uint64_t line_no = 0;
  bool saw_schema = false;
  while (std::getline(in, line)) {
    ++line_no;
    // Tolerate \r\n fixtures.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;

    const telemetry::JsonParseResult parsed = telemetry::parse_json(line);
    Record r{parsed.value, &res.trace, {}};
    if (!parsed.ok)
      r.error = "malformed JSONL: " + parsed.error;
    else if (!parsed.value.is_object())
      r.error = "malformed JSONL: record is not an object";
    else
      parse_record(r, &saw_schema);
    if (!r.error.empty()) {
      res.error = r.error;
      res.line_no = line_no;
      return res;
    }
  }
  if (!saw_schema) {
    res.error = "empty stream: no schema header";
    return res;
  }
  res.ok = true;
  return res;
}

TraceReadResult read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    TraceReadResult res;
    res.error = "cannot open trace file: " + path;
    return res;
  }
  return read_trace(in);
}

}  // namespace radiomc::analysis
