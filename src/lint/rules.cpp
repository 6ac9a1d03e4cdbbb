#include "lint/rules.h"

#include <algorithm>
#include <map>
#include <set>

#include "lint/facts.h"
#include "lint/layers.h"
#include "lint/lexer.h"
#include "lint/semantic.h"

namespace radiomc::lint {

namespace {

// Path helpers (in_dir / basename_of / is_header / is_rng_support) live in
// lint/facts.h so every pass shares one copy.

// ---------------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------------

struct Waiver {
  int line = 0;
  std::string rule;
  std::string reason;
  bool used = false;
};

std::string trim(std::string s) {
  const auto issp = [](char c) { return c == ' ' || c == '\t'; };
  while (!s.empty() && issp(s.front())) s.erase(s.begin());
  while (!s.empty() && issp(s.back())) s.pop_back();
  return s;
}

std::vector<Waiver> parse_waivers(const LexedFile& f) {
  std::vector<Waiver> out;
  for (const Comment& c : f.comments) {
    const std::size_t tag = c.text.find("radiomc-lint:");
    if (tag == std::string::npos) continue;
    const std::size_t open = c.text.find("allow(", tag);
    if (open == std::string::npos) continue;
    const std::size_t close = c.text.find(')', open);
    if (close == std::string::npos) continue;
    Waiver w;
    w.line = c.line;
    w.rule = trim(c.text.substr(open + 6, close - open - 6));
    const std::size_t reason = c.text.find("reason=", close);
    if (reason != std::string::npos)
      w.reason = trim(c.text.substr(reason + 7));
    out.push_back(std::move(w));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared token-walk helpers.
// ---------------------------------------------------------------------------

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

/// Emits one finding.
void report(std::vector<Finding>* out, std::string rule, const LexedFile& f,
            int line, std::string message) {
  out->push_back(
      {std::move(rule), f.path, line, std::move(message), false, {}});
}

// ---------------------------------------------------------------------------
// determinism / no-raw-random + no-wall-clock
// ---------------------------------------------------------------------------

/// Idents banned wherever they appear (their very mention means a
/// nondeterministic source was reached for).
const std::set<std::string_view> kBannedRandomTypes = {
    "random_device", "mt19937",      "mt19937_64", "default_random_engine",
    "minstd_rand",   "minstd_rand0", "knuth_b",    "random_shuffle"};

/// Idents banned as direct (possibly std::-qualified) calls.
const std::set<std::string_view> kBannedRandomCalls = {"rand", "srand",
                                                       "drand48", "srand48",
                                                       "lrand48"};

const std::set<std::string_view> kBannedClockTypes = {
    "system_clock", "high_resolution_clock", "steady_clock", "gettimeofday",
    "localtime",    "gmtime"};
const std::set<std::string_view> kBannedClockCalls = {"time", "clock"};

/// The one place clock identifiers are allowed: the sanctioned stopwatch
/// and the measurement layer built on it (see support/stopwatch.h).
bool is_clock_sanctioned(std::string_view path) {
  const std::string_view base = basename_of(path);
  if (in_dir(path, "src/support") &&
      (base == "stopwatch.h" || base == "stopwatch.cpp"))
    return true;
  return in_dir(path, "src/perf");
}

/// True when token i is a free or std::-qualified call of its name — i.e.
/// not a member access (`x.rand()`) and not qualified by a non-std scope.
bool is_free_or_std_call(const LexedFile& f, std::size_t i) {
  if (i + 1 >= f.tokens.size() || !is_punct(f.tokens[i + 1], "(")) return false;
  if (i == 0) return true;
  const Token& prev = f.tokens[i - 1];
  if (is_punct(prev, ".") || is_punct(prev, "->")) return false;
  if (is_punct(prev, "::"))
    return i >= 2 && is_ident(f.tokens[i - 2], "std");
  // `PhaseClock clock(...)` / `const PhaseClock& clock() const` declare an
  // unrelated name; a preceding type identifier or declarator punctuation
  // means declaration, not call (`return` still heads a real call).
  if (prev.kind == Token::Kind::kIdent && prev.text != "return") return false;
  if (is_punct(prev, "&") || is_punct(prev, "*")) return false;
  return true;
}

void rule_banned_idents(const LexedFile& f, std::vector<Finding>* out) {
  if (!in_dir(f.path, "src")) return;
  const bool rng_impl = is_rng_support(f.path);
  const bool clock_ok = is_clock_sanctioned(f.path);
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (!rng_impl) {
      if (kBannedRandomTypes.count(t.text)) {
        report(out, "no-raw-random", f, t.line,
               "'" + t.text +
                   "' in src/: all randomness must flow from the run seed "
                   "through support/rng.h (Rng::split), or trials stop being "
                   "reproducible");
        continue;
      }
      if (kBannedRandomCalls.count(t.text) && is_free_or_std_call(f, i)) {
        report(out, "no-raw-random", f, t.line,
               "'" + t.text +
                   "()' in src/: use the seeded Rng from support/rng.h");
        continue;
      }
    }
    if (clock_ok) continue;
    if (kBannedClockTypes.count(t.text)) {
      report(out, "no-wall-clock", f, t.line,
             "'" + t.text +
                 "' in src/: wall-clock time is nondeterministic; simulated "
                 "time is SlotTime, and every real-time read must funnel "
                 "through support/stopwatch.h (the one audited clock)");
      continue;
    }
    if (kBannedClockCalls.count(t.text) && is_free_or_std_call(f, i)) {
      report(out, "no-wall-clock", f, t.line,
             "'" + t.text +
                 "()' in src/: wall-clock reads make runs irreproducible; "
                 "use support/stopwatch.h");
    }
  }
}

// ---------------------------------------------------------------------------
// determinism / unordered-container
// ---------------------------------------------------------------------------

const std::set<std::string_view> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

void rule_unordered_container(const LexedFile& f, std::vector<Finding>* out) {
  if (!in_deterministic_zone(f.path)) return;
  for (const Token& t : f.tokens) {
    if (t.kind == Token::Kind::kIdent && kUnorderedTypes.count(t.text)) {
      report(out, "unordered-container", f, t.line,
             "std::" + t.text +
                 " on a deterministic path: iteration order is unspecified "
                 "and one range-for away from breaking byte-identical "
                 "trials; use an ordered container or a sorted drain, or "
                 "waive with a reason explaining why order can never leak");
    }
  }
}

// ---------------------------------------------------------------------------
// perf-purity / perf-purity-flow
//
// The measurement layer (src/perf/ on top of support/stopwatch.h) reads
// real clocks; simulation state must stay a pure function of the seed. The
// include direction — model declarations and the engine never see the
// measurement headers — is a set of `.lint-layers` edges checked by
// layer-dag. This rule holds the value direction: timing values never
// appear in model code at all, and the Profiler/PerfSpan surface a driver
// touches is write-only, so a measured nanosecond cannot flow into an Rng
// or a transmit decision.
// ---------------------------------------------------------------------------

/// Identifiers that carry measured-time values. Their mention in model
/// code means a wall-clock quantity is in scope where it could steer the
/// simulation; Profiler / PerfSpan are deliberately absent (write-only).
const std::set<std::string_view> kTimingValueIdents = {
    "elapsed_ns",       "elapsed_ms",     "wall_ms",   "cpu_ms",
    "monotonic_now_ns", "process_cpu_ns", "Stopwatch", "ScopedTimer"};

void rule_perf_purity_flow(const LexedFile& f, std::vector<Finding>* out) {
  if (!(in_dir(f.path, "src/protocols") || in_dir(f.path, "src/radio") ||
        in_dir(f.path, "src/faults") || in_dir(f.path, "src/baselines") ||
        in_dir(f.path, "src/service") || in_dir(f.path, "src/health")))
    return;
  for (const Token& t : f.tokens) {
    if (t.kind == Token::Kind::kIdent && kTimingValueIdents.count(t.text)) {
      report(out, "perf-purity-flow", f, t.line,
             "'" + t.text +
                 "' in model code: measured time must never be readable "
                 "where simulation decisions are made — keep timing values "
                 "in src/perf/ and the drivers' write-only Profiler calls");
    }
  }
}

// ---------------------------------------------------------------------------
// telemetry / trace-kind-table (cross-file)
// ---------------------------------------------------------------------------

void rule_trace_kind_table(const std::vector<LexedFile>& files,
                           std::vector<Finding>* out) {
  const LexedFile* sink = nullptr;
  const LexedFile* table_file = nullptr;
  for (const LexedFile& f : files) {
    const std::string_view base = basename_of(f.path);
    if (base == "jsonl_sink.cpp") sink = &f;
    if (base == "trace_event.h") table_file = &f;
  }
  if (sink == nullptr) return;

  // Every `ev` kind the writer emits: member("ev", "<kind>") for structural
  // lines, event_line("<kind>", ...) for physical events.
  std::vector<std::pair<std::string, int>> emitted;
  const auto& tok = sink->tokens;
  for (std::size_t i = 0; i + 1 < tok.size(); ++i) {
    if (is_ident(tok[i], "member") && i + 4 < tok.size() &&
        is_punct(tok[i + 1], "(") &&
        tok[i + 2].kind == Token::Kind::kString && tok[i + 2].text == "ev" &&
        is_punct(tok[i + 3], ",") &&
        tok[i + 4].kind == Token::Kind::kString) {
      emitted.emplace_back(tok[i + 4].text, tok[i + 4].line);
    }
    if (is_ident(tok[i], "event_line") && i + 2 < tok.size() &&
        is_punct(tok[i + 1], "(") &&
        tok[i + 2].kind == Token::Kind::kString) {
      emitted.emplace_back(tok[i + 2].text, tok[i + 2].line);
    }
  }
  if (emitted.empty()) return;

  // The canonical kind table: kTraceLineKinds in analysis/trace_event.h.
  std::map<std::string, int> table;
  if (table_file != nullptr) {
    const auto& tt = table_file->tokens;
    for (std::size_t i = 0; i < tt.size(); ++i) {
      if (!is_ident(tt[i], "kTraceLineKinds")) continue;
      std::size_t j = i;
      while (j < tt.size() && !is_punct(tt[j], "{")) ++j;
      for (++j; j < tt.size() && !is_punct(tt[j], "}"); ++j) {
        if (tt[j].kind == Token::Kind::kString)
          table.emplace(tt[j].text, tt[j].line);
      }
      break;
    }
  }
  if (table.empty()) {
    report(out, "trace-kind-table", *sink, emitted.front().second,
           "jsonl_sink.cpp emits trace `ev` kinds but no kTraceLineKinds "
           "table was found in analysis/trace_event.h — the v2 schema has "
           "no source of truth to drift-check against");
    return;
  }

  std::set<std::string> used;
  for (const auto& [kind, line] : emitted) {
    used.insert(kind);
    if (!table.count(kind)) {
      report(out, "trace-kind-table", *sink, line,
             "trace line kind \"" + kind +
                 "\" is not in kTraceLineKinds (analysis/trace_event.h): "
                 "the writer and the v2 schema have drifted");
    }
  }
  for (const auto& [kind, line] : table) {
    if (!used.count(kind)) {
      report(out, "trace-kind-table", *table_file, line,
             "kTraceLineKinds entry \"" + kind +
                 "\" is never emitted by telemetry/jsonl_sink.cpp: stale "
                 "schema entry (or the writer lost a line kind)");
    }
  }
}

// ---------------------------------------------------------------------------
// exhaustiveness / switch-default
// ---------------------------------------------------------------------------

const std::set<std::string_view> kClosedEnums = {"RunStatus", "MsgKind",
                                                 "EvKind"};

/// Parses the switch whose `switch` keyword is at token i; returns the
/// index one past its closing `}` (or tokens.size()). Recurses into nested
/// switches so their labels are not attributed to the outer one.
std::size_t scan_switch(const LexedFile& f, std::size_t i,
                        std::vector<Finding>* out) {
  const auto& tok = f.tokens;
  std::size_t j = i + 1;
  while (j < tok.size() && !is_punct(tok[j], "{")) ++j;  // past (cond)
  if (j >= tok.size()) return tok.size();
  int depth = 1;
  bool watched = false;
  std::vector<int> default_lines;
  for (++j; j < tok.size() && depth > 0; ++j) {
    const Token& t = tok[j];
    if (is_punct(t, "{")) {
      ++depth;
    } else if (is_punct(t, "}")) {
      --depth;
    } else if (is_ident(t, "switch")) {
      j = scan_switch(f, j, out) - 1;  // nested switch: skip its body
    } else if (is_ident(t, "case")) {
      // Collect the scope qualifiers of the label (Foo::Bar::kBaz).
      std::size_t k = j + 1;
      while (k + 1 < tok.size() && tok[k].kind == Token::Kind::kIdent &&
             is_punct(tok[k + 1], "::")) {
        if (kClosedEnums.count(tok[k].text)) watched = true;
        k += 2;
      }
      j = k;
    } else if (is_ident(t, "default") && j + 1 < tok.size() &&
               is_punct(tok[j + 1], ":")) {
      default_lines.push_back(t.line);
    }
  }
  if (watched) {
    for (int line : default_lines) {
      report(out, "switch-default", f, line,
             "default: on a switch over a closed model enum (RunStatus / "
             "MsgKind / EvKind) silences -Wswitch — enumerate every value "
             "so adding one forces every switch to be revisited");
    }
  }
  return j;
}

void rule_switch_default(const LexedFile& f, std::vector<Finding>* out) {
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (is_ident(f.tokens[i], "switch")) i = scan_switch(f, i, out) - 1;
  }
}

// ---------------------------------------------------------------------------
// Catalog + driver.
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kCatalog = {
    {"no-raw-random", "determinism",
     "std::random_device / rand() / engine types outside support/rng.*"},
    {"no-wall-clock", "determinism",
     "time() / system_clock reads in simulation code"},
    {"unordered-container", "determinism",
     "unordered_{map,set} in protocols/faults/radio/telemetry/support/"
     "service/health"},
    {"rng-stream-audit", "determinism",
     "global Rng::split tag inventory: same-parent duplicate tags, bare "
     "literal tags, call-computed tags, fixed-literal-seed Rng"},
    {"layer-dag", "model-purity",
     "full include graph vs the declared .lint-layers DAG: undeclared "
     "cross-layer edges (engine or clock seen from the model, the offline "
     "auditor seen online), manifest errors, declared-graph cycles"},
    {"perf-purity-flow", "perf-purity",
     "timing-value identifiers (Stopwatch, elapsed_ns, ...) in model code"},
    {"hub-null-check", "telemetry",
     "unguarded dereference of optional TelemetryHub*/TraceSink*/Profiler* "
     "(flow-aware: per-branch guards, early-return promotion)"},
    {"trace-kind-table", "telemetry",
     "jsonl_sink.cpp `ev` kinds vs the trace_event.h kind table"},
    {"switch-default", "exhaustiveness",
     "default: on switches over RunStatus / MsgKind / EvKind"},
    {"shard-safety", "sharding",
     "every RadioNetwork/ActiveSet member touched in the slot loop is "
     "classified shard-local / barrier-mergeable / order-sensitive"},
    {"unused-waiver", "hygiene",
     "radiomc-lint: allow(...) comment that suppresses nothing"},
};

}  // namespace

const std::vector<RuleInfo>& rule_catalog() { return kCatalog; }

std::size_t count_unwaived(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (!f.waived) ++n;
  return n;
}

AnalysisResult run_analyses(const std::vector<SourceFile>& files,
                            const LintOptions& opt) {
  std::set<std::string> selected(opt.only_rules.begin(),
                                 opt.only_rules.end());
  const auto enabled = [&](std::string_view id) {
    return selected.empty() || selected.count(std::string(id)) != 0;
  };

  // Stage one: each file is tokenized exactly once; the facts pass runs
  // over those token streams once for all rules.
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& f : files)
    lexed.push_back(lex_source(f.path, f.content));
  FactsDb facts = build_facts(lexed);

  AnalysisResult result;
  result.files_scanned = files.size();
  std::vector<Finding>& findings = result.findings;

  // Cross-TU optional-hook field set, from facts.
  std::set<std::string> hub_fields;
  for (const FileFacts& f : facts.files) {
    for (const PointerFieldFact& p : f.pointer_fields) {
      if (p.null_default && is_hub_pointer_type(p.type))
        hub_fields.insert(p.name);
    }
  }

  for (std::size_t i = 0; i < lexed.size(); ++i) {
    const LexedFile& f = lexed[i];
    if (enabled("no-raw-random") || enabled("no-wall-clock")) {
      std::vector<Finding> both;
      rule_banned_idents(f, &both);
      for (Finding& fi : both)
        if (enabled(fi.rule)) findings.push_back(std::move(fi));
    }
    if (enabled("unordered-container")) rule_unordered_container(f, &findings);
    if (enabled("perf-purity-flow")) rule_perf_purity_flow(f, &findings);
    if (enabled("hub-null-check"))
      analyze_hub_null_check(f, hub_fields, &findings);
    if (enabled("switch-default")) rule_switch_default(f, &findings);
  }
  if (enabled("trace-kind-table")) rule_trace_kind_table(lexed, &findings);

  // Stage two: the cross-TU semantic analyses.
  if (enabled("rng-stream-audit")) {
    analyze_rng_streams(facts, &findings, &result.rng_tags);
    result.split_sites = count_split_sites(facts);
  }
  if (enabled("shard-safety")) {
    analyze_shard_safety(facts, &findings, &result.shard_safety);
  }
  if (enabled("layer-dag") && !opt.layers_manifest.empty()) {
    LayerManifest manifest = parse_layer_manifest(opt.layers_manifest);
    result.layers_declared = manifest.layers.size();
    result.layer_edges_declared = manifest.edges.size();
    auto layer_findings =
        check_layers(manifest, opt.layers_manifest_name, facts);
    findings.insert(findings.end(),
                    std::make_move_iterator(layer_findings.begin()),
                    std::make_move_iterator(layer_findings.end()));
  }
  result.facts = std::move(facts);

  // Waiver application: a waiver on line L covers findings of its rule on
  // lines L and L+1 of the same file. (Manifest findings never match a
  // lexed file, so they are unwaivable by construction.)
  std::set<std::string> known_rules;
  for (const RuleInfo& r : kCatalog) known_rules.insert(std::string(r.id));
  for (const LexedFile& f : lexed) {
    std::vector<Waiver> waivers = parse_waivers(f);
    if (waivers.empty()) continue;
    for (Finding& fi : findings) {
      if (fi.file != f.path) continue;
      for (Waiver& w : waivers) {
        if (w.rule == fi.rule &&
            (w.line == fi.line || w.line + 1 == fi.line)) {
          fi.waived = true;
          fi.waiver_reason = w.reason;
          w.used = true;
        }
      }
    }
    if (enabled("unused-waiver")) {
      for (const Waiver& w : waivers) {
        if (w.used) continue;
        const bool unknown = known_rules.count(w.rule) == 0;
        findings.push_back(
            {"unused-waiver", f.path, w.line,
             unknown ? "waiver names unknown rule '" + w.rule + "'"
                     : "waiver for '" + w.rule +
                           "' suppresses nothing here — delete it (stale "
                           "waivers hide future regressions)",
             false,
             {}});
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

}  // namespace radiomc::lint
