// radiomc_lint — determinism & model-purity static analysis for this repo.
//
// The repo's headline guarantees (byte-identical trials across --jobs,
// fault schedules that are a pure function of (seed, plan, graph), strict
// trace audits) are invariants of the *source*, not just of today's test
// runs. This tool makes them machine-checked on every commit: each rule in
// src/lint/rules.cpp bans one way of silently breaking them, the semantic
// analyses in src/lint/semantic.cpp + layers.cpp check the cross-TU
// invariants (split-tag independence, the layer DAG, shard safety), and
// every finding is individually waivable in-line with a reason.
//
// Usage:
//   radiomc_lint [options] <path>...       lint files / directory trees
//   radiomc_lint --list-rules              print the rule catalog
//
// Options:
//   --json FILE       write the radiomc.lint/v2 JSON report to FILE
//   --facts-out FILE  write the radiomc.facts/v1 cross-TU facts DB to FILE
//   --layers FILE     layer manifest for the layer-dag analysis, the one
//                     include policy (default: ./.lint-layers when it exists)
//   --no-layers       skip the layer-dag analysis, and so every include
//                     check, even if ./.lint-layers exists
//   --rule ID[,ID..]  run only these rules (repeatable; unknown ids error
//                     with a nearest-match suggestion)
//   --no-waived       hide waived findings from the text output
//
// Exit status: 0 = clean (waived findings allowed), 1 = unwaived findings,
// 2 = usage or I/O error.
//
// See docs/STATIC_ANALYSIS.md for the rule catalog and the waiver syntax.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/facts.h"
#include "lint/runner.h"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: radiomc_lint [--json FILE] [--facts-out FILE] "
        "[--layers FILE | --no-layers]\n"
        "                    [--rule ID[,ID...]]... [--no-waived] <path>...\n"
        "       radiomc_lint --list-rules\n";
  return code;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The catalog rule id closest to `id` (for "did you mean" suggestions).
std::string nearest_rule(const std::string& id) {
  std::string best;
  std::size_t best_d = static_cast<std::size_t>(-1);
  for (const radiomc::lint::RuleInfo& r : radiomc::lint::rule_catalog()) {
    const std::size_t d = edit_distance(id, std::string(r.id));
    if (d < best_d) {
      best_d = d;
      best = std::string(r.id);
    }
  }
  return best;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = std::move(ss).str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace radiomc::lint;

  std::vector<std::string> roots;
  std::string json_path;
  std::string facts_path;
  std::string layers_path;
  bool no_layers = false;
  LintOptions opt;
  bool show_waived = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_catalog())
        std::cout << r.id << "  [" << r.family << "]  " << r.summary << '\n';
      return 0;
    }
    if (arg == "--json") {
      if (++i >= argc) return usage(std::cerr, 2);
      json_path = argv[i];
    } else if (arg == "--facts-out") {
      if (++i >= argc) return usage(std::cerr, 2);
      facts_path = argv[i];
    } else if (arg == "--layers") {
      if (++i >= argc) return usage(std::cerr, 2);
      layers_path = argv[i];
    } else if (arg == "--no-layers") {
      no_layers = true;
    } else if (arg == "--rule") {
      if (++i >= argc) return usage(std::cerr, 2);
      std::istringstream list(argv[i]);
      std::string id;
      while (std::getline(list, id, ',')) {
        if (id.empty()) continue;
        const bool known = std::any_of(
            rule_catalog().begin(), rule_catalog().end(),
            [&](const RuleInfo& r) { return r.id == id; });
        if (!known) {
          std::cerr << "radiomc_lint: unknown rule '" << id
                    << "' (did you mean '" << nearest_rule(id)
                    << "'? see --list-rules)\n";
          return 2;
        }
        opt.only_rules.push_back(id);
      }
    } else if (arg == "--no-waived") {
      show_waived = false;
    } else if (arg.starts_with("--")) {
      std::cerr << "radiomc_lint: unknown option " << arg << '\n';
      return usage(std::cerr, 2);
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage(std::cerr, 2);

  // Layer manifest: explicit --layers, else ./.lint-layers if present.
  if (!no_layers) {
    if (!layers_path.empty()) {
      if (!read_file(layers_path, &opt.layers_manifest)) {
        std::cerr << "radiomc_lint: cannot read layer manifest " << layers_path
                  << '\n';
        return 2;
      }
      opt.layers_manifest_name = layers_path;
    } else if (read_file(".lint-layers", &opt.layers_manifest)) {
      opt.layers_manifest_name = ".lint-layers";
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SourceFile> files = load_tree(roots);
  if (files.empty()) {
    std::cerr << "radiomc_lint: no lintable files under given paths\n";
    return 2;
  }

  const AnalysisResult result = run_analyses(files, opt);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  print_findings(std::cout, result.findings, show_waived);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "radiomc_lint: cannot write " << json_path << '\n';
      return 2;
    }
    write_json_report(out, result, wall_ms);
  }

  if (!facts_path.empty()) {
    std::ofstream out(facts_path);
    if (!out) {
      std::cerr << "radiomc_lint: cannot write " << facts_path << '\n';
      return 2;
    }
    write_facts_json(out, result.facts);
  }

  const std::size_t unwaived = count_unwaived(result.findings);
  std::cout << "radiomc_lint: " << files.size() << " files, "
            << result.findings.size() << " findings (" << unwaived
            << " unwaived, " << result.findings.size() - unwaived
            << " waived)\n";
  return unwaived == 0 ? 0 : 1;
}
