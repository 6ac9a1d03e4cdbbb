#include "lint/semantic.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace radiomc::lint {

bool in_deterministic_zone(std::string_view path) {
  return in_dir(path, "src/protocols") || in_dir(path, "src/faults") ||
         in_dir(path, "src/radio") || in_dir(path, "src/telemetry") ||
         in_dir(path, "src/support") || in_dir(path, "src/service") ||
         in_dir(path, "src/health");
}

bool is_hub_pointer_type(std::string_view type) {
  return type == "TelemetryHub" || type == "TraceSink" || type == "Profiler" ||
         type == "SlotHook";
}

namespace {

bool is_tag_registry(std::string_view path) {
  return in_dir(path, "src/support") && basename_of(path) == "rng_tags.h";
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

void report(std::vector<Finding>* out, std::string rule, std::string file,
            int line, std::string message) {
  out->push_back(
      {std::move(rule), std::move(file), line, std::move(message), false, {}});
}

std::string leaf_name(const std::string& qualified) {
  auto pos = qualified.rfind(' ');
  return pos == std::string::npos ? qualified : qualified.substr(pos + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// rng-stream-audit
// ---------------------------------------------------------------------------

std::size_t count_split_sites(const FactsDb& facts) {
  std::size_t n = 0;
  for (const auto& f : facts.files) {
    if (in_dir(f.path, "src")) n += f.splits.size();
  }
  return n;
}

void analyze_rng_streams(const FactsDb& facts, std::vector<Finding>* out,
                         std::vector<TagInventoryEntry>* inventory) {
  // Which constant names are actually used as split tags anywhere.
  std::set<std::string> used_as_tag;
  for (const auto& f : facts.files) {
    for (const auto& s : f.splits) {
      if (s.tag_is_name) used_as_tag.insert(leaf_name(s.tag_expr));
    }
  }

  // Per-file per-rule scans.
  for (const auto& f : facts.files) {
    if (!in_dir(f.path, "src")) continue;
    const bool deterministic = in_deterministic_zone(f.path);

    if (!is_rng_support(f.path)) {
      for (const auto& c : f.rng_ctors) {
        if (!c.literal_seed) continue;
        report(out, "rng-stream-audit", f.path, c.line,
               "Rng constructed from fixed literal seed " + hex64(c.value) +
                   " — streams must derive from the run seed via "
                   "Rng::split(tag); if this fixed stream is intentional, "
                   "name the seed in support/rng_tags.h and waive with the "
                   "reason");
      }
    }

    for (const auto& s : f.splits) {
      if (s.tag_is_literal && !is_rng_support(f.path)) {
        report(out, "rng-stream-audit", f.path, s.line,
               "bare literal split tag " + hex64(s.value) + " on parent '" +
                   s.receiver +
                   "' — name it as a constexpr in support/rng_tags.h so the "
                   "global tag inventory can prove streams independent");
      }
      if (s.tag_has_call && deterministic) {
        report(out, "rng-stream-audit", f.path, s.line,
               "split tag '" + s.tag_expr +
                   "' is computed by a call on a deterministic path — tags "
                   "must be named constants or pure index arithmetic so the "
                   "derived stream is a function of the run seed alone");
      }
    }

    // Same-parent duplicate tags: two splits of the same receiver with the
    // same resolved constant value inside one function (or at one file's
    // class/file scope) yield byte-identical child streams.
    std::map<std::pair<std::string, std::uint64_t>,
             std::vector<const SplitFact*>>
        by_parent_tag;
    for (const auto& s : f.splits) {
      if (!s.resolved) continue;
      by_parent_tag[{s.function + "\x01" + s.receiver, s.value}].push_back(&s);
    }
    for (const auto& [key, sites] : by_parent_tag) {
      for (std::size_t i = 1; i < sites.size(); ++i) {
        report(out, "rng-stream-audit", f.path, sites[i]->line,
               "split tag " + hex64(sites[i]->value) +
                   " drawn twice from parent '" + sites[i]->receiver +
                   "' (first at line " + std::to_string(sites[0]->line) +
                   ") — the two child streams are byte-identical, not "
                   "independent");
      }
    }
  }

  // The registry (support/rng_tags.h) must assign pairwise-distinct
  // values: a collision correlates any two streams split with the
  // colliding names from a common parent.
  struct NamedTag {
    std::string name;
    std::string file;
    int line;
  };
  std::map<std::uint64_t, std::vector<NamedTag>> registry_by_value;
  for (const auto& f : facts.files) {
    for (const auto& k : f.tag_consts) {
      const bool in_registry = is_tag_registry(f.path);
      if (in_registry || (used_as_tag.count(k.name) && in_dir(f.path, "src"))) {
        if (inventory != nullptr) {
          inventory->push_back({k.name, k.value, f.path, k.line});
        }
      }
      if (in_registry) {
        registry_by_value[k.value].push_back({k.name, f.path, k.line});
      }
    }
  }
  for (const auto& [value, tags] : registry_by_value) {
    for (std::size_t i = 1; i < tags.size(); ++i) {
      if (tags[i].name == tags[0].name) continue;
      report(out, "rng-stream-audit", tags[i].file, tags[i].line,
             "split-tag constants '" + tags[0].name + "' (line " +
                 std::to_string(tags[0].line) + ") and '" + tags[i].name +
                 "' share value " + hex64(value) +
                 " — colliding tags correlate streams derived from a common "
                 "parent; registry values must be pairwise distinct");
    }
  }

  if (inventory != nullptr) {
    std::sort(inventory->begin(), inventory->end(),
              [](const TagInventoryEntry& a, const TagInventoryEntry& b) {
                if (a.value != b.value) return a.value < b.value;
                return a.name < b.name;
              });
    inventory->erase(
        std::unique(inventory->begin(), inventory->end(),
                    [](const TagInventoryEntry& a, const TagInventoryEntry& b) {
                      return a.value == b.value && a.name == b.name &&
                             a.file == b.file;
                    }),
        inventory->end());
  }
}

// ---------------------------------------------------------------------------
// shard-safety
// ---------------------------------------------------------------------------

namespace {

/// The engine functions that run inside the per-slot hot loop — the code a
/// sharded Phase 1 would execute concurrently.
bool is_slot_loop_function(const std::string& fn) {
  return fn == "RadioNetwork::step" || fn == "ActiveSet::begin_slot" ||
         fn == "ActiveSet::end_slot" || fn == "ActiveSet::wake" ||
         fn == "ActiveSet::wake_at" || fn == "ActiveSet::set_autosleep";
}

struct MemberClass {
  std::string_view classification;
  std::string_view rationale;
};

/// The reviewed classification table. Every mutable engine member touched
/// in the slot loop must appear here; the analysis fails on drift in
/// either direction (touched-but-unclassified, classified-but-untouched).
const std::map<std::string_view, MemberClass>& radio_network_table() {
  static const std::map<std::string_view, MemberClass> t = {
      {"now_",
       {"barrier-mergeable",
        "per-slot scalar advanced exactly once; all shards agree at the "
        "slot barrier"}},
      {"epoch_",
       {"barrier-mergeable",
        "slot epoch stamp advanced once per slot at the barrier"}},
      {"metrics_",
       {"barrier-mergeable",
        "monotone counters; per-shard deltas sum at the barrier"}},
      {"stats_",
       {"barrier-mergeable",
        "scheduling counters: sum polls/wakes, max peak-active"}},
      {"act_epoch_",
       {"shard-local",
        "indexed by transmitting node; a node is polled only by its owning "
        "shard"}},
      {"act_msg_",
       {"shard-local",
        "per-transmitter channel cells; written only while polling the "
        "owning shard's nodes"}},
      {"keep_",
       {"shard-local", "retention mark indexed by the polled node"}},
      {"row_",
       {"shard-local",
        "per-poll scratch row; a sharded engine gives each worker its own "
        "row (aliased writes via range-for)"}},
      {"tx_list_",
       {"barrier-mergeable",
        "append-only transmit-intent list; shard lists concatenate in "
        "ascending node order at the barrier"}},
      {"touched_",
       {"barrier-mergeable",
        "touched-cell set; union then sort restores the canonical "
        "(node, channel) scan order"}},
      {"touched_bits_",
       {"barrier-mergeable",
        "ordering scratch for the merged touched set, used once per slot "
        "after the barrier and zero again before the next slot"}},
      {"rx_epoch_",
       {"barrier-mergeable",
        "receiver cell stamps; boundary cells written by several shards "
        "merge by count-sum with canonical survivor order"}},
      {"rx_count_",
       {"barrier-mergeable",
        "per-cell arrival counts; sum per boundary cell at the barrier"}},
      {"rx_msg_",
       {"barrier-mergeable",
        "surviving message per cell; deterministic winner under the "
        "canonical ascending-transmitter merge"}},
      {"capture_rng_",
       {"order-sensitive",
        "one global capture-draw stream consumed in touched-cell order; "
        "must stay serialized or be re-derived per cell via Rng::split"}},
      {"active_set_",
       {"order-sensitive",
        "shared sorted membership; admission/retention and cross-shard "
        "wakes mutate it, so membership ops serialize at the barrier"}},
      {"trace_",
       {"order-sensitive",
        "trace emission order is the byte-identity contract of the JSONL "
        "stream"}},
      {"slot_hook_",
       {"order-sensitive",
        "observer fires once per slot after the world is consistent"}},
      {"faults_",
       {"order-sensitive",
        "fault schedule advances per-slot churn state exactly once"}},
      {"stations_",
       {"order-sensitive",
        "station callbacks run in canonical delivery order; boundary "
        "receivers belong to other shards"}},
      {"cfg_", {"read-only", "immutable run configuration; freely shared"}},
      {"adj_",
       {"read-only", "immutable CSR adjacency; freely shared"}},
  };
  return t;
}

const std::map<std::string_view, MemberClass>& active_set_table() {
  static const std::map<std::string_view, MemberClass> t = {
      {"active_",
       {"barrier-mergeable",
        "sorted membership vector; set semantics restored by the ascending "
        "sort at admission"}},
      {"in_active_",
       {"barrier-mergeable", "membership flag; idempotent set-insert, "
                             "union at the barrier"}},
      {"pending_",
       {"barrier-mergeable",
        "pending-wake list; idempotent marks dedup by pending_flag_, union "
        "then ascending sort at admission"}},
      {"pending_flag_",
       {"barrier-mergeable", "pending-wake dedup flag; monotone OR within "
                             "a slot"}},
      {"slot_woken_",
       {"barrier-mergeable", "woken-this-slot mark; monotone OR within a "
                             "slot"}},
      {"woke_flag_",
       {"barrier-mergeable",
        "first-raise dedup flag; monotone OR, merged before wake_events_ "
        "sums"}},
      {"wake_events_",
       {"barrier-mergeable",
        "counts first-raise wake events; sum per-shard deltas after "
        "woke_flag_ dedup"}},
      {"autosleep_",
       {"barrier-mergeable",
        "per-node opt-in flag; only the owning node's station writes it"}},
      {"any_autosleep_",
       {"barrier-mergeable", "monotone OR over autosleep_"}},
      {"timers_",
       {"barrier-mergeable",
        "timed-wake min-heap; per-shard arms union at the barrier, and due "
        "timers only feed pending_, whose admission sort restores order"}},
      {"last_armed_",
       {"barrier-mergeable",
        "per-node repeat-arm filter; only the owning node's station writes "
        "it, and a miss only costs a duplicate heap entry"}},
      {"next_slot_",
       {"barrier-mergeable",
        "slot clock; set once in begin_slot before any shard polls, so "
        "every shard reads the same value"}},
  };
  return t;
}

}  // namespace

void analyze_shard_safety(const FactsDb& facts, std::vector<Finding>* out,
                          std::vector<ShardSafetyRow>* rows) {
  struct Agg {
    std::set<std::string> accesses;
    std::string file;
    int line = 0;
    int sites = 0;
  };
  // owner -> member -> aggregate
  std::map<std::string, std::map<std::string, Agg>> touched;
  std::map<std::string, std::pair<std::string, int>> owner_anchor;

  for (const auto& f : facts.files) {
    for (const auto& m : f.member_accesses) {
      if (!is_slot_loop_function(m.function)) continue;
      auto colon = m.function.find("::");
      std::string owner = m.function.substr(0, colon);
      auto& agg = touched[owner][m.member];
      agg.accesses.insert(m.access);
      if (agg.sites == 0) {
        agg.file = f.path;
        agg.line = m.line;
      }
      ++agg.sites;
      if (owner_anchor.find(owner) == owner_anchor.end()) {
        for (const auto& fn : f.functions) {
          if (fn.name == m.function) {
            owner_anchor[owner] = {f.path, fn.line};
            break;
          }
        }
      }
    }
  }

  for (const auto& [owner, members] : touched) {
    const auto& table =
        owner == "ActiveSet" ? active_set_table() : radio_network_table();
    for (const auto& [member, agg] : members) {
      std::string access;
      for (const auto& a : {std::string("read"), std::string("write"),
                            std::string("call")}) {
        if (agg.accesses.count(a)) {
          if (!access.empty()) access += '+';
          access += a;
        }
      }
      auto it = table.find(member);
      if (it == table.end()) {
        report(out, "shard-safety", agg.file, agg.line,
               "engine member '" + owner + "::" + member +
                   "' is touched in the slot loop (" + access +
                   ") but has no entry in the shard-safety classification "
                   "table (src/lint/semantic.cpp) — classify it shard-local "
                   "/ barrier-mergeable / order-sensitive before the sharded "
                   "engine can rely on this report");
        if (rows != nullptr) {
          rows->push_back({owner, member, access, "unclassified",
                           "no classification table entry", agg.file, agg.line,
                           agg.sites});
        }
        continue;
      }
      if (it->second.classification == "read-only" &&
          agg.accesses.count("write")) {
        report(out, "shard-safety", agg.file, agg.line,
               "engine member '" + owner + "::" + member +
                   "' is classified read-only but the slot loop writes it — "
                   "the classification table has drifted from the engine");
      }
      if (rows != nullptr) {
        rows->push_back({owner, member, access,
                         std::string(it->second.classification),
                         std::string(it->second.rationale), agg.file, agg.line,
                         agg.sites});
      }
    }

    // Stale table entries. Only checked once most of an owner's table is
    // observed, so reduced fixtures (one function, one member) don't trip
    // a wall of stale findings.
    if (members.size() >= 8) {
      for (const auto& [member, cls] : table) {
        if (members.count(std::string(member))) continue;
        const auto anchor = owner_anchor[owner];
        report(out, "shard-safety", anchor.first, anchor.second,
               "shard-safety table entry '" + owner + "::" +
                   std::string(member) +
                   "' is never touched in the slot loop — stale entry (or "
                   "the engine lost an access the table still documents)");
      }
    }
  }

  if (rows != nullptr) {
    std::sort(rows->begin(), rows->end(),
              [](const ShardSafetyRow& a, const ShardSafetyRow& b) {
                if (a.owner != b.owner) return a.owner < b.owner;
                return a.member < b.member;
              });
  }
}

// ---------------------------------------------------------------------------
// hub-null-check (flow-aware)
// ---------------------------------------------------------------------------

namespace {

bool is_ident_t(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
bool is_punct_t(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool is_terminator_keyword(const Token& t) {
  return t.kind == Token::Kind::kIdent &&
         (t.text == "return" || t.text == "break" || t.text == "continue" ||
          t.text == "throw" || t.text == "goto");
}

/// One brace scope. Guards hold the pointer paths proven non-null for the
/// scope's extent; else_guards are what the *negation* of the opening
/// condition proves (applied to an `else` branch, or promoted to the
/// parent when every path through this branch terminates).
struct GuardScope {
  std::set<std::string> guards;
  std::set<std::string> else_guards;
  bool is_branch = false;   ///< opened by if/else/while
  bool is_loop = false;     ///< while/for: no after-exit promotion
  bool is_plain = true;     ///< bare block: termination propagates upward
  bool last_stmt_terminates = false;
  bool cur_stmt_terminator = false;
};

/// Parsed condition: what the condition proves inside the branch (pos)
/// and what its negation proves (neg).
struct CondGuards {
  std::set<std::string> pos;
  std::set<std::string> neg;
};

/// Splits the condition token span [begin, end) at top-level &&/|| and
/// classifies each atom as a positive (`p`, `p != nullptr`) or negative
/// (`!p`, `p == nullptr`) null test on an identifier chain.
CondGuards parse_condition(const std::vector<Token>& tok, std::size_t begin,
                           std::size_t end) {
  struct Atom {
    std::string path;
    bool positive = false;
    bool known = false;
  };
  std::vector<Atom> atoms;
  bool all_and = true, all_or = true;
  std::size_t atom_begin = begin;
  int depth = 0;

  auto classify = [&](std::size_t a, std::size_t b) {
    Atom atom;
    // Optional leading '!'
    bool negated = false;
    if (a < b && is_punct_t(tok[a], "!")) {
      negated = true;
      ++a;
    }
    // nullptr == chain / nullptr != chain
    bool lhs_nullptr = false;
    std::string cmp;
    if (a + 1 < b && is_ident_t(tok[a], "nullptr") &&
        (is_punct_t(tok[a + 1], "==") || is_punct_t(tok[a + 1], "!="))) {
      lhs_nullptr = true;
      cmp = tok[a + 1].text;
      a += 2;
    }
    // The identifier chain.
    std::string path;
    std::size_t j = a;
    if (j < b && tok[j].kind == Token::Kind::kIdent) {
      path = tok[j].text;
      while (j + 2 < b &&
             (is_punct_t(tok[j + 1], ".") || is_punct_t(tok[j + 1], "->")) &&
             tok[j + 2].kind == Token::Kind::kIdent) {
        path += tok[j + 1].text;
        path += tok[j + 2].text;
        j += 2;
      }
    }
    if (path.empty()) return atom;
    ++j;
    // Trailing comparison.
    if (!lhs_nullptr && j + 1 < b &&
        (is_punct_t(tok[j], "==") || is_punct_t(tok[j], "!=")) &&
        is_ident_t(tok[j + 1], "nullptr")) {
      cmp = tok[j].text;
      j += 2;
    }
    if (j != b) return atom;  // something else in the atom (call, compare…)
    atom.path = path;
    atom.known = true;
    if (!cmp.empty()) {
      atom.positive = (cmp == "!=") != negated;
    } else {
      atom.positive = !negated;
    }
    return atom;
  };

  for (std::size_t i = begin; i <= end; ++i) {
    bool boundary = i == end;
    if (!boundary) {
      if (is_punct_t(tok[i], "(") || is_punct_t(tok[i], "[")) ++depth;
      if (is_punct_t(tok[i], ")") || is_punct_t(tok[i], "]")) --depth;
      if (depth == 0 &&
          (is_punct_t(tok[i], "&&") || is_punct_t(tok[i], "||"))) {
        boundary = true;
        if (tok[i].text == "&&") all_or = false;
        if (tok[i].text == "||") all_and = false;
      }
    }
    if (boundary) {
      atoms.push_back(classify(atom_begin, i));
      atom_begin = i + 1;
    }
  }

  CondGuards g;
  if (atoms.size() == 1 && atoms[0].known) {
    if (atoms[0].positive) g.pos.insert(atoms[0].path);
    else g.neg.insert(atoms[0].path);
    return g;
  }
  if (all_and && !all_or) {
    for (const auto& a : atoms)
      if (a.known && a.positive) g.pos.insert(a.path);
  } else if (all_or && !all_and) {
    for (const auto& a : atoms)
      if (a.known && !a.positive) g.neg.insert(a.path);
  }
  return g;
}

}  // namespace

void analyze_hub_null_check(const LexedFile& f,
                            const std::set<std::string>& global_fields,
                            std::vector<Finding>* out) {
  if (!in_dir(f.path, "src") && !in_dir(f.path, "tools")) return;

  // Effective pointer names for this file: the global field set, plus
  // local declarations of the hub types, minus names shadowed here by a
  // *different* pointer type (e.g. a parser whose `trace` is a Trace*).
  std::set<std::string> hub_names = global_fields;
  const auto& tok = f.tokens;
  for (std::size_t i = 0; i + 2 < tok.size(); ++i) {
    if (tok[i].kind != Token::Kind::kIdent || !is_punct_t(tok[i + 1], "*") ||
        tok[i + 2].kind != Token::Kind::kIdent)
      continue;
    const std::string& type = tok[i].text;
    const std::string& name = tok[i + 2].text;
    if (is_hub_pointer_type(type)) {
      hub_names.insert(name);
    } else if (i + 3 < tok.size()) {
      const Token& after = tok[i + 3];
      if (is_punct_t(after, ";") || is_punct_t(after, "=") ||
          is_punct_t(after, ",") || is_punct_t(after, ")"))
        hub_names.erase(name);
    }
  }
  if (hub_names.empty()) return;

  std::vector<GuardScope> scopes(1);  // [0] = file scope
  std::set<std::string> stmt_guards;  // guards valid to the end of statement

  // Pending condition from an if/while, applied to the next `{` or to the
  // single statement that follows; else_seed carries an else branch's
  // inherited guarantees.
  CondGuards pending;
  bool pending_active = false;
  bool pending_loop = false;
  std::size_t pending_close = 0;  // token index of the condition's `)`
  std::set<std::string> else_seed;
  std::set<std::string> last_else_guards;
  std::set<std::string> promote_on_semi;

  const auto guarded = [&](const std::string& path) {
    if (stmt_guards.count(path)) return true;
    for (const auto& s : scopes)
      if (s.guards.count(path)) return true;
    return false;
  };

  bool stmt_start = true;
  for (std::size_t i = 0; i < tok.size(); ++i) {
    const Token& t = tok[i];

    // Apply a parsed condition to whatever follows its `)`.
    if (pending_active && i == pending_close + 1 && !is_punct_t(t, "{")) {
      // Single-statement branch: positive guards hold until the `;`;
      // a terminator statement promotes the negation past the branch.
      stmt_guards.insert(pending.pos.begin(), pending.pos.end());
      stmt_guards.insert(else_seed.begin(), else_seed.end());
      if (!pending_loop && is_terminator_keyword(t)) {
        promote_on_semi.insert(pending.neg.begin(), pending.neg.end());
      }
      last_else_guards = pending.neg;
      else_seed.clear();
      pending_active = false;
    }

    if (is_punct_t(t, "{")) {
      GuardScope s;
      if (pending_active && i == pending_close + 1) {
        s.is_branch = true;
        s.is_plain = false;
        s.is_loop = pending_loop;
        s.guards = pending.pos;
        s.else_guards = pending.neg;
        pending_active = false;
      }
      if (!else_seed.empty()) {
        s.is_branch = true;
        s.is_plain = false;
        s.guards.insert(else_seed.begin(), else_seed.end());
        else_seed.clear();
      }
      scopes.push_back(std::move(s));
      stmt_guards.clear();
      stmt_start = true;
      continue;
    }
    if (is_punct_t(t, "}")) {
      if (scopes.size() > 1) {
        GuardScope closed = std::move(scopes.back());
        scopes.pop_back();
        const bool terminated = closed.last_stmt_terminates;
        if (closed.is_branch && !closed.is_loop && terminated) {
          scopes.back().guards.insert(closed.else_guards.begin(),
                                      closed.else_guards.end());
        }
        last_else_guards = closed.else_guards;
        // A plain block that always terminates terminates its parent's
        // current statement position too.
        scopes.back().last_stmt_terminates = closed.is_plain && terminated;
      }
      stmt_guards.clear();
      stmt_start = true;
      continue;
    }
    if (is_punct_t(t, ";")) {
      GuardScope& cur = scopes.back();
      cur.last_stmt_terminates = cur.cur_stmt_terminator;
      cur.cur_stmt_terminator = false;
      if (!promote_on_semi.empty()) {
        cur.guards.insert(promote_on_semi.begin(), promote_on_semi.end());
        promote_on_semi.clear();
      }
      stmt_guards.clear();
      else_seed.clear();
      stmt_start = true;
      continue;
    }

    if (stmt_start) {
      if (is_terminator_keyword(t)) scopes.back().cur_stmt_terminator = true;
      stmt_start = false;
    }

    if (t.kind != Token::Kind::kIdent) continue;

    // Parse if/while conditions (the condition tokens still flow through
    // the normal walk below, so dereferences inside them are checked).
    if ((t.text == "if" || t.text == "while") && i + 1 < tok.size() &&
        is_punct_t(tok[i + 1], "(")) {
      int depth = 0;
      std::size_t close = tok.size();
      for (std::size_t j = i + 1; j < tok.size(); ++j) {
        if (is_punct_t(tok[j], "(")) ++depth;
        if (is_punct_t(tok[j], ")") && --depth == 0) {
          close = j;
          break;
        }
      }
      if (close < tok.size()) {
        pending = parse_condition(tok, i + 2, close);
        pending_active = true;
        pending_loop = t.text == "while";
        pending_close = close;
      }
      continue;
    }
    if (t.text == "else") {
      else_seed = last_else_guards;
      stmt_guards.insert(else_seed.begin(), else_seed.end());
      continue;
    }

    if (i > 0 && (is_punct_t(tok[i - 1], ".") || is_punct_t(tok[i - 1], "->") ||
                  is_punct_t(tok[i - 1], "::")))
      continue;  // not the head of a chain

    // Walk the access chain a.b->c..., checking each -> dereference.
    std::string path = t.text;
    std::string last = t.text;
    std::size_t j = i;
    while (j + 2 < tok.size() &&
           (is_punct_t(tok[j + 1], ".") || is_punct_t(tok[j + 1], "->")) &&
           tok[j + 2].kind == Token::Kind::kIdent) {
      if (is_punct_t(tok[j + 1], "->") && hub_names.count(last) &&
          !guarded(path)) {
        report(out, "hub-null-check", f.path, tok[j + 1].line,
               "unchecked dereference of optional telemetry/trace pointer "
               "'" + path +
                   "': guard with `if (" + path +
                   " != nullptr)` so instrumentation stays optional");
        scopes.back().guards.insert(path);  // one finding per site/scope
      }
      path += tok[j + 1].text;
      last = tok[j + 2].text;
      path += last;
      j += 2;
    }

    // `*chain` unary dereference (e.g. `Telemetry& tel = *cfg.telemetry;`).
    if (hub_names.count(last) && i > 0 && is_punct_t(tok[i - 1], "*")) {
      const bool unary = i < 2 || tok[i - 2].kind == Token::Kind::kPunct ||
                         is_ident_t(tok[i - 2], "return");
      if (unary && !(i >= 2 && is_punct_t(tok[i - 2], ")")) &&
          !guarded(path)) {
        report(out, "hub-null-check", f.path, tok[i - 1].line,
               "unchecked dereference of optional telemetry/trace pointer "
               "'*" + path +
                   "': guard with `if (" + path + " != nullptr)`");
        scopes.back().guards.insert(path);
      }
    }

    // Statement-scope guard registration: null tests and `p && ...` /
    // `... && p` / `p ? ...` prove non-nullness for the rest of the
    // statement (the branch-extent guards come from parse_condition).
    if (hub_names.count(last)) {
      const Token* next = j + 1 < tok.size() ? &tok[j + 1] : nullptr;
      const Token* prev = i > 0 ? &tok[i - 1] : nullptr;
      bool guard = false;
      if (next != nullptr && is_punct_t(*next, "!=") && j + 2 < tok.size() &&
          is_ident_t(tok[j + 2], "nullptr"))
        guard = true;
      if (prev != nullptr && is_punct_t(*prev, "!="))
        guard = true;  // nullptr != p
      if ((next != nullptr && is_punct_t(*next, "&&")) ||
          (prev != nullptr && is_punct_t(*prev, "&&")))
        guard = true;
      if (next != nullptr && is_punct_t(*next, "?")) guard = true;
      if (guard) stmt_guards.insert(path);
    }

    i = j;  // skip the consumed chain
  }
}

}  // namespace radiomc::lint
