#pragma once

// radiomc_lint rule engine.
//
// Each rule enforces one project invariant as a named, individually
// waivable check (see docs/STATIC_ANALYSIS.md for the catalog). Rules run
// over the lexed token streams of src/lint/lexer.h, so comments and
// string literals cannot produce false positives. Since PR 10 the engine
// is two-stage: every file is tokenized exactly once, a facts pass
// (src/lint/facts.h) extracts per-file facts into a cross-TU database,
// and both the token-level rules and the semantic analyses (layer-dag,
// rng-stream-audit, shard-safety, the flow-aware hub-null-check) consume
// that single pass.
//
// Waivers: a finding on line L is suppressed by a comment on line L or
// L-1 carrying the `radiomc-lint:` marker followed by an
// allow(rule-id) clause and an optional reason=free-text tail (the two
// parts must share one comment; see docs/STATIC_ANALYSIS.md for examples).
// Waived findings are still reported (with their reason) but do not fail
// the run; a waiver that suppresses nothing is itself a finding
// (`unused-waiver`), so stale waivers cannot rot in the tree. Findings
// against the `.lint-layers` manifest itself (parse errors, declared-graph
// cycles) are not waivable — the manifest is the contract.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint/facts.h"

namespace radiomc::lint {

struct SourceFile {
  std::string path;     ///< repo-relative or absolute; rules match suffixes
  std::string content;  ///< full file text
};

struct Finding {
  std::string rule;     ///< rule id, e.g. "no-raw-random"
  std::string file;
  int line = 0;
  std::string message;
  bool waived = false;
  std::string waiver_reason;  ///< nonempty iff waived and a reason was given
};

struct RuleInfo {
  std::string_view id;
  std::string_view family;  ///< determinism | model-purity | perf-purity |
                            ///< telemetry | exhaustiveness | sharding | hygiene
  std::string_view summary;
};

/// The full rule catalog, in reporting order.
const std::vector<RuleInfo>& rule_catalog();

struct LintOptions {
  /// When nonempty, only these rule ids run (unknown ids are ignored here;
  /// the CLI validates them first and suggests near matches).
  std::vector<std::string> only_rules;
  /// Contents of the layer manifest. Empty disables the layer-dag
  /// analysis, and with it every include check (so fixture runs without a
  /// manifest are unaffected).
  std::string layers_manifest;
  /// Name the manifest's own findings are reported against.
  std::string layers_manifest_name = ".lint-layers";
};

/// One row of the shard_safety section of the radiomc.lint/v2 report
/// (produced by the shard-safety analysis in src/lint/semantic.h).
struct ShardSafetyRow {
  std::string owner;           ///< "RadioNetwork" | "ActiveSet"
  std::string member;
  std::string access;          ///< "read" | "write" | "call" | "read+write" ...
  std::string classification;  ///< shard-local | barrier-mergeable |
                               ///< order-sensitive | read-only | unclassified
  std::string rationale;
  std::string file;
  int line = 0;   ///< first access site
  int sites = 0;  ///< total access sites in the slot loop
};

/// One entry of the rng_streams section: a named split tag.
struct TagInventoryEntry {
  std::string name;
  std::uint64_t value = 0;
  std::string file;
  int line = 0;
};

/// Everything one analyzer run produces: findings plus the structured
/// sections of the radiomc.lint/v2 report.
struct AnalysisResult {
  std::vector<Finding> findings;
  std::vector<ShardSafetyRow> shard_safety;
  std::vector<TagInventoryEntry> rng_tags;
  std::size_t split_sites = 0;
  std::size_t files_scanned = 0;
  std::size_t layers_declared = 0;
  std::size_t layer_edges_declared = 0;
  /// The stage-one database (each file tokenized exactly once), kept so
  /// callers (`--facts-out`) can serialize it without re-lexing.
  FactsDb facts;
};

/// Runs every (selected) rule and semantic analysis over `files`. Each
/// file is lexed exactly once; findings — waived ones included — come
/// back sorted by (file, line, rule).
AnalysisResult run_analyses(const std::vector<SourceFile>& files,
                            const LintOptions& opt = {});

/// Unwaived findings only (what the CLI exits nonzero on).
std::size_t count_unwaived(const std::vector<Finding>& findings);

}  // namespace radiomc::lint
