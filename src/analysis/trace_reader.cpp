#include "analysis/trace_reader.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "support/parse.h"
#include "telemetry/jsonl_sink.h"

namespace radiomc::analysis {

namespace {

// --- Minimal flat-JSON line scanner -----------------------------------
//
// Accepts exactly the shape the sink writes: {"k":v,...} with v a string,
// an unsigned integer, a boolean, or an array of unsigned integers. The
// scanner produces (key, value) pairs; values keep their lexical form plus
// a tag so the consumer can check types.

enum class ValType { kString, kUInt, kBool, kUIntArray };

struct Field {
  std::string key;
  ValType type = ValType::kUInt;
  std::string str;                  // kString
  std::uint64_t num = 0;            // kUInt
  bool b = false;                   // kBool
  std::vector<std::uint64_t> arr;   // kUIntArray
};

struct LineScan {
  bool ok = false;
  std::string error;
  std::vector<Field> fields;
};

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

bool scan_string(std::string_view s, std::size_t& i, std::string* out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out->clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      // The sink never emits content needing escapes beyond these, but a
      // hand-edited fixture might.
      if (i + 1 >= s.size()) return false;
      char c = s[i + 1];
      if (c == '"' || c == '\\' || c == '/') out->push_back(c);
      else if (c == 'n') out->push_back('\n');
      else if (c == 't') out->push_back('\t');
      else return false;
      i += 2;
    } else {
      out->push_back(s[i++]);
    }
  }
  if (i >= s.size()) return false;  // unterminated
  ++i;                              // closing quote
  return true;
}

/// Scans a run of decimal digits into `out`. Returns nullptr on success,
/// else what is wrong with the value ("bad", or "out of range" past
/// 2^64-1).
const char* scan_uint(std::string_view s, std::size_t& i, std::uint64_t* out) {
  const std::size_t start = i;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  if (i == start) return "bad";
  const std::optional<std::uint64_t> v = parse_u64(s.substr(start, i - start));
  if (!v) return "out of range";
  *out = *v;
  return nullptr;
}

LineScan scan_line(std::string_view s) {
  LineScan r;
  std::size_t i = 0;
  skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') {
    r.error = "expected '{'";
    return r;
  }
  ++i;
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    r.ok = true;
    return r;
  }
  for (;;) {
    skip_ws(s, i);
    Field f;
    if (!scan_string(s, i, &f.key)) {
      r.error = "expected key string";
      return r;
    }
    skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') {
      r.error = "expected ':' after key \"" + f.key + "\"";
      return r;
    }
    ++i;
    skip_ws(s, i);
    if (i >= s.size()) {
      r.error = "missing value for key \"" + f.key + "\"";
      return r;
    }
    if (s[i] == '"') {
      f.type = ValType::kString;
      if (!scan_string(s, i, &f.str)) {
        r.error = "bad string value for key \"" + f.key + "\"";
        return r;
      }
    } else if (s[i] == 't' || s[i] == 'f') {
      f.type = ValType::kBool;
      if (s.substr(i, 4) == "true") {
        f.b = true;
        i += 4;
      } else if (s.substr(i, 5) == "false") {
        f.b = false;
        i += 5;
      } else {
        r.error = "bad literal for key \"" + f.key + "\"";
        return r;
      }
    } else if (s[i] == '[') {
      f.type = ValType::kUIntArray;
      ++i;
      skip_ws(s, i);
      if (i < s.size() && s[i] == ']') {
        ++i;
      } else {
        for (;;) {
          skip_ws(s, i);
          std::uint64_t v = 0;
          if (const char* why = scan_uint(s, i, &v)) {
            r.error =
                std::string(why) + " array element for key \"" + f.key + "\"";
            return r;
          }
          f.arr.push_back(v);
          skip_ws(s, i);
          if (i < s.size() && s[i] == ',') {
            ++i;
            continue;
          }
          if (i < s.size() && s[i] == ']') {
            ++i;
            break;
          }
          r.error = "expected ',' or ']' in array for key \"" + f.key + "\"";
          return r;
        }
      }
    } else {
      f.type = ValType::kUInt;
      if (const char* why = scan_uint(s, i, &f.num)) {
        r.error = std::string(why) + " value for key \"" + f.key + "\"";
        return r;
      }
    }
    r.fields.push_back(std::move(f));
    skip_ws(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == '}') {
      ++i;
      break;
    }
    r.error = "expected ',' or '}'";
    return r;
  }
  skip_ws(s, i);
  if (i != s.size()) {
    r.error = "trailing characters after object";
    return r;
  }
  r.ok = true;
  return r;
}

const Field* find(const LineScan& ls, std::string_view key) {
  for (const Field& f : ls.fields)
    if (f.key == key) return &f;
  return nullptr;
}

bool get_uint(const LineScan& ls, std::string_view key, std::uint64_t* out) {
  const Field* f = find(ls, key);
  if (f == nullptr || f->type != ValType::kUInt) return false;
  *out = f->num;
  return true;
}

// --- Per-record parsing ------------------------------------------------

struct ParseCtx {
  Trace* trace;
  std::string error;  // non-empty => fail the line
};

void parse_schema(const LineScan& ls, ParseCtx* ctx) {
  TraceSchema& sc = ctx->trace->schema;
  const Field* v = find(ls, "v");
  if (v == nullptr || v->type != ValType::kString) {
    ctx->error = "schema record missing version string \"v\"";
    return;
  }
  sc.version = v->str;
  if (sc.version != telemetry::kTraceSchemaVersion) {
    ctx->error = "unsupported trace schema version \"" + sc.version +
                 "\" (this reader understands \"" +
                 telemetry::kTraceSchemaVersion + "\")";
    return;
  }
  if (const Field* p = find(ls, "protocol");
      p != nullptr && p->type == ValType::kString) {
    sc.protocol = p->str;
  }
  std::uint64_t decay_len = 0;
  if (get_uint(ls, "decay_len", &decay_len)) {
    SlotStructure slots;
    slots.decay_len = static_cast<std::uint32_t>(decay_len);
    if (const Field* a = find(ls, "ack");
        a != nullptr && a->type == ValType::kBool)
      slots.ack_subslots = a->b;
    if (const Field* m = find(ls, "mod3");
        m != nullptr && m->type == ValType::kBool)
      slots.mod3_gating = m->b;
    sc.slots = slots;
  }
  get_uint(ls, "agg", &sc.aggregate_every);
  if (const Field* lv = find(ls, "levels");
      lv != nullptr && lv->type == ValType::kUIntArray) {
    sc.levels.reserve(lv->arr.size());
    for (std::uint64_t l : lv->arr)
      sc.levels.push_back(static_cast<std::uint32_t>(l));
  }
}

void parse_event(const LineScan& ls, EvKind kind, ParseCtx* ctx) {
  TraceEvent e;
  e.ev = kind;
  std::uint64_t v = 0;
  if (!get_uint(ls, "t", &e.t)) {
    ctx->error = "event record missing slot \"t\"";
    return;
  }
  if (!get_uint(ls, "node", &v)) {
    ctx->error = "event record missing \"node\"";
    return;
  }
  e.node = static_cast<NodeId>(v);
  if (get_uint(ls, "ch", &v)) e.ch = static_cast<ChannelId>(v);

  if (kind == EvKind::kCollision) {
    if (!get_uint(ls, "txn", &v)) {
      ctx->error = "coll record missing \"txn\"";
      return;
    }
    e.tx_neighbors = static_cast<std::uint32_t>(v);
  } else {
    const Field* k = find(ls, "kind");
    if (k == nullptr || k->type != ValType::kString) {
      ctx->error = "tx/rx record missing message \"kind\"";
      return;
    }
    std::optional<MsgKind> mk = msg_kind_from_name(k->str);
    if (!mk) {
      ctx->error = "unknown message kind \"" + k->str + "\"";
      return;
    }
    e.kind = *mk;
    if (get_uint(ls, "origin", &v)) e.origin = static_cast<NodeId>(v);
    if (get_uint(ls, "seq", &v)) e.seq = static_cast<std::uint32_t>(v);
    if (get_uint(ls, "dest", &v)) e.dest = static_cast<NodeId>(v);
    if (get_uint(ls, "from", &v)) e.from = static_cast<NodeId>(v);
    if (get_uint(ls, "fp", &v)) e.from_parent = static_cast<NodeId>(v);
  }

  Trace& tr = *ctx->trace;
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

void parse_agg(const LineScan& ls, ParseCtx* ctx) {
  TraceWindow w;
  if (!get_uint(ls, "t0", &w.t0) || !get_uint(ls, "t1", &w.t1)) {
    ctx->error = "agg record missing window bounds";
    return;
  }
  get_uint(ls, "tx", &w.tx);
  get_uint(ls, "rx", &w.rx);
  get_uint(ls, "coll", &w.coll);
  get_uint(ls, "jam", &w.jam);
  ctx->trace->windows.push_back(w);
}

void parse_truncated(const LineScan& ls, ParseCtx* ctx) {
  Trace& tr = *ctx->trace;
  tr.truncated = true;
  get_uint(ls, "t", &tr.truncated_at);
  get_uint(ls, "dropped", &tr.dropped_events);
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

    LineScan ls = scan_line(line);
    if (!ls.ok) {
      res.error = "malformed JSONL: " + ls.error;
      res.line_no = line_no;
      return res;
    }
    const Field* ev = find(ls, "ev");
    if (ev == nullptr || ev->type != ValType::kString) {
      res.error = "record missing \"ev\" discriminator";
      res.line_no = line_no;
      return res;
    }

    if (!saw_schema) {
      if (ev->str != "schema") {
        res.error = "first record must be the schema header (got \"" +
                    ev->str + "\")";
        res.line_no = line_no;
        return res;
      }
    } else if (ev->str == "schema") {
      res.error = "duplicate schema record";
      res.line_no = line_no;
      return res;
    }

    ParseCtx ctx{&res.trace, {}};
    if (ev->str == "schema") {
      parse_schema(ls, &ctx);
      if (ctx.error.empty()) saw_schema = true;
    } else if (ev->str == "tx") {
      parse_event(ls, EvKind::kTx, &ctx);
    } else if (ev->str == "rx") {
      parse_event(ls, EvKind::kRx, &ctx);
    } else if (ev->str == "coll") {
      parse_event(ls, EvKind::kCollision, &ctx);
    } else if (ev->str == "agg") {
      parse_agg(ls, &ctx);
    } else if (ev->str == "truncated") {
      parse_truncated(ls, &ctx);
    } else {
      ctx.error = "unknown record type \"" + ev->str + "\"";
    }
    if (!ctx.error.empty()) {
      res.error = ctx.error;
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
