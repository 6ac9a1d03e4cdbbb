// Tests for the radiomc_lint rule engine (src/lint/).
//
// Three layers:
//  1. fixture snippets fed through run_analyses() — at least one failing
//     fixture per rule family, a passing twin, and a pass-with-waiver
//     variant, so the suite pins down what each rule fires on (the
//     include-policy fixtures run against the repo's real .lint-layers);
//  2. the trace-kind round trip: every `ev` value the live JsonlTraceSink
//     writes must pass analysis/trace_event.h's is_trace_line_kind, i.e.
//     the table the trace-kind-table rule checks statically is also
//     correct at runtime;
//  3. the repo itself: linting the real src/tools/bench trees must yield
//     zero unwaived findings (the same gate CI enforces).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/trace_event.h"
#include "lint/layers.h"
#include "lint/lexer.h"
#include "lint/rules.h"
#include "lint/runner.h"
#include "radio/message.h"
#include "telemetry/json_value.h"
#include "telemetry/jsonl_sink.h"

namespace {

using radiomc::lint::Finding;
using radiomc::lint::LintOptions;
using radiomc::lint::SourceFile;

std::vector<Finding> Lint(std::vector<SourceFile> files,
                          LintOptions opt = {}) {
  return radiomc::lint::run_analyses(files, opt).findings;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

/// The repo's own layer manifest: the include policy fixtures are held to
/// exactly what the tree enforces.
LintOptions RepoLayers() {
  LintOptions opt;
  opt.layers_manifest = ReadWholeFile(RADIOMC_SOURCE_DIR "/.lint-layers");
  return opt;
}

radiomc::lint::AnalysisResult Analyze(std::vector<SourceFile> files,
                                      LintOptions opt = {}) {
  return radiomc::lint::run_analyses(files, opt);
}

std::size_t CountRule(const std::vector<Finding>& findings,
                      std::string_view rule, bool waived_only = false) {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (f.rule == rule && (!waived_only || f.waived)) ++n;
  return n;
}

std::size_t Unwaived(const std::vector<Finding>& findings) {
  return radiomc::lint::count_unwaived(findings);
}

/// The files `rule` fired on, sorted, one entry per finding.
std::vector<std::string> FlaggedFiles(const std::vector<Finding>& findings,
                                      std::string_view rule) {
  std::vector<std::string> out;
  for (const Finding& f : findings)
    if (f.rule == rule) out.push_back(f.file);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(LintLexer, SeparatesTokensCommentsAndIncludes) {
  const auto f = radiomc::lint::lex_source("src/x.cpp",
                                           "#include \"radio/station.h\"\n"
                                           "#include <vector>\n"
                                           "// a comment\n"
                                           "int main() { return 0; } /* b */\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].path, "radio/station.h");
  EXPECT_FALSE(f.includes[0].angled);
  EXPECT_EQ(f.includes[1].path, "vector");
  EXPECT_TRUE(f.includes[1].angled);
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[0].line, 3);
  EXPECT_TRUE(f.comments[0].own_line);
  EXPECT_FALSE(f.comments[1].own_line);
  // Tokens carry no comment or include text.
  for (const auto& t : f.tokens) {
    EXPECT_NE(t.text, "include");
    EXPECT_NE(t.text, "comment");
  }
}

TEST(LintLexer, StringsAndRawStringsAreOpaque) {
  const auto f = radiomc::lint::lex_source(
      "src/x.cpp",
      "const char* a = \"rand() \\\" time()\";\n"
      "const char* b = R\"tag(rand() \"quoted\")tag\";\n");
  std::size_t strings = 0;
  for (const auto& t : f.tokens) {
    if (t.kind == radiomc::lint::Token::Kind::kString) ++strings;
    EXPECT_NE(t.text, "rand");
  }
  EXPECT_EQ(strings, 2u);
}

// ---------------------------------------------------------------------------
// Family: determinism.
// ---------------------------------------------------------------------------

TEST(LintDeterminism, FlagsRawRandomInSrc) {
  const auto findings = Lint({{"src/protocols/bad.cpp",
                               "#include <random>\n"
                               "int roll() {\n"
                               "  std::mt19937 gen(42);\n"
                               "  return rand();\n"
                               "}\n"}});
  EXPECT_EQ(CountRule(findings, "no-raw-random"), 2u);
  EXPECT_EQ(Unwaived(findings), 2u);
}

TEST(LintDeterminism, RngSupportAndMemberCallsPass) {
  const auto findings = Lint(
      {// support/rng.* is the one place engine types are allowed.
       {"src/support/rng.cpp", "std::mt19937_64 engine_;\n"},
       // A member call named like a banned function is not a banned call.
       {"src/protocols/ok.cpp", "int f(Clock& c) { return c.time(); }\n"}});
  EXPECT_EQ(CountRule(findings, "no-raw-random"), 0u);
  EXPECT_EQ(CountRule(findings, "no-wall-clock"), 0u);
}

TEST(LintDeterminism, FlagsWallClockReads) {
  const auto findings = Lint(
      {{"src/radio/bad.cpp",
        "#include <chrono>\n"
        "long now() {\n"
        "  auto t = std::chrono::system_clock::now();\n"
        "  return time(nullptr);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "no-wall-clock"), 2u);
}

TEST(LintDeterminism, CommentsAndStringsAreImmune) {
  const auto findings = Lint({{"src/protocols/docs.cpp",
                               "// rand() and std::mt19937 discussed here\n"
                               "const char* s = \"time() rand()\";\n"}});
  EXPECT_EQ(Unwaived(findings), 0u);
}

TEST(LintDeterminism, FlagsUnorderedContainersInDeterministicZones) {
  const std::string decl = "#include <unordered_map>\n"
                           "std::unordered_map<int, int> m;\n";
  const auto findings = Lint({{"src/faults/bad.cpp", decl},
                              // src/analysis is offline: order can't leak
                              // into a trial, so the zone excludes it.
                              {"src/analysis/ok.cpp", decl}});
  EXPECT_EQ(CountRule(findings, "unordered-container"), 1u);
  for (const Finding& f : findings)
    EXPECT_EQ(f.file, "src/faults/bad.cpp") << f.rule;
}

TEST(LintDeterminism, ServiceZoneIsDeterministicAndPerfPure) {
  // src/service drives soak certification: byte-identity across --jobs is
  // part of its contract, so it sits in every zone the protocol layer does.
  const auto findings = Lint(
      {{"src/service/bad.cpp", "#include <unordered_map>\n"
                               "std::unordered_map<int, int> m;\n"},
       {"src/service/bad.h", "#include \"perf/profiler.h\"\n"},
       {"src/service/flow.cpp", "long f(Stopwatch& w) { return 0; }\n"},
       {"src/service/offline.cpp",
        "#include \"analysis/trace_event.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(CountRule(findings, "unordered-container"), 1u);
  EXPECT_EQ(CountRule(findings, "perf-purity-flow"), 1u);
  // The header may not see perf/; no service file may see the offline auditor.
  EXPECT_EQ(FlaggedFiles(findings, "layer-dag"),
            (std::vector<std::string>{"src/service/bad.h",
                                      "src/service/offline.cpp"}));
}

TEST(LintDeterminism, HealthZoneIsDeterministicAndPerfPure) {
  // src/health streams radiomc.health/v1 as a pure function of (seed,
  // config): iteration order, wall time, and the offline auditor are all
  // forbidden there for the same reasons as in src/service.
  const auto findings = Lint(
      {{"src/health/bad.cpp", "#include <unordered_map>\n"
                              "std::unordered_map<int, int> m;\n"},
       {"src/health/bad.h", "#include \"perf/profiler.h\"\n"},
       {"src/health/flow.cpp", "long f(Stopwatch& w) { return 0; }\n"},
       {"src/health/offline.cpp",
        "#include \"analysis/trace_event.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(CountRule(findings, "unordered-container"), 1u);
  EXPECT_EQ(CountRule(findings, "perf-purity-flow"), 1u);
  // The header may not see perf/; no health file may see the offline auditor.
  EXPECT_EQ(FlaggedFiles(findings, "layer-dag"),
            (std::vector<std::string>{"src/health/bad.h",
                                      "src/health/offline.cpp"}));
}

TEST(LintDeterminism, WaiverSuppressesUnorderedContainer) {
  const auto findings = Lint(
      {{"src/protocols/waived.cpp",
        "#include <unordered_map>\n"
        "// radiomc-lint: allow(unordered-container) reason=lookup only\n"
        "std::unordered_map<int, int> m;\n"}});
  EXPECT_EQ(CountRule(findings, "unordered-container", /*waived_only=*/true),
            1u);
  EXPECT_EQ(Unwaived(findings), 0u);
  for (const Finding& f : findings) {
    if (f.waived) {
      EXPECT_EQ(f.waiver_reason, "lookup only");
    }
  }
}

// ---------------------------------------------------------------------------
// Family: model-purity.
// ---------------------------------------------------------------------------

TEST(LintModelPurity, ProtocolHeaderMayNotIncludeEngine) {
  const auto findings =
      Lint({{"src/protocols/bad.h", "#include \"radio/network.h\"\n"}},
           RepoLayers());
  EXPECT_EQ(FlaggedFiles(findings, "layer-dag"),
            (std::vector<std::string>{"src/protocols/bad.h"}));
}

TEST(LintModelPurity, DriverCppAndAllowlistedHeadersPass) {
  const auto findings = Lint(
      {// The driver translation unit is the apparatus; it may host the
       // engine.
       {"src/protocols/driver.cpp", "#include \"radio/network.h\"\n"},
       // Headers may see the station-facing surface.
       {"src/protocols/ok.h", "#include \"radio/station.h\"\n"
                              "#include \"radio/schedule.h\"\n"
                              "#include \"radio/trace.h\"\n"
                              "#include \"radio/message.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(CountRule(findings, "layer-dag"), 0u);
}

TEST(LintModelPurity, WaiverCoversEngineOwningService) {
  const auto findings = Lint(
      {{"src/protocols/service.h",
        "// radiomc-lint: allow(layer-dag) reason=owns the engine\n"
        "#include \"radio/network.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(CountRule(findings, "layer-dag", /*waived_only=*/true), 1u);
  EXPECT_EQ(Unwaived(findings), 0u);
}

TEST(LintModelPurity, AnalysisIsOfflineOnly) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp", "#include \"analysis/trace_event.h\"\n"},
       {"src/radio/bad2.cpp", "#include \"analysis/auditor.h\"\n"},
       // tools/ drive the auditor; that is its intended consumer.
       {"tools/radiomc_trace.cpp", "#include \"analysis/auditor.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(FlaggedFiles(findings, "layer-dag"),
            (std::vector<std::string>{"src/protocols/bad.cpp",
                                      "src/radio/bad2.cpp"}));
}

// ---------------------------------------------------------------------------
// Family: perf-purity (plus the narrowed no-wall-clock allowlist).
// ---------------------------------------------------------------------------

TEST(LintPerfPurity, SteadyClockIsBannedOutsideTheStopwatch) {
  const std::string body =
      "#include <chrono>\n"
      "long now() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  const auto findings = Lint({{"src/protocols/bad.cpp", body},
                              // The sanctioned clock implementation itself.
                              {"src/support/stopwatch.h", body},
                              // The measurement layer built on top of it.
                              {"src/perf/profiler.cpp", body}});
  EXPECT_EQ(CountRule(findings, "no-wall-clock"), 1u);
  for (const Finding& f : findings) {
    if (f.rule == "no-wall-clock") {
      EXPECT_EQ(f.file, "src/protocols/bad.cpp");
    }
  }
}

TEST(LintPerfPurity, StdClockCallIsBannedButDeclarationsAreNot) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp", "long f() { return std::clock(); }\n"},
       // A constructor call / accessor declaration of an unrelated name.
       {"src/analysis/ok.cpp",
        "void g(const Schema& s) {\n"
        "  const PhaseClock clock(s.slots);\n"
        "  (void)clock;\n"
        "}\n"
        "struct S { const PhaseClock& clock() const; };\n"}});
  EXPECT_EQ(CountRule(findings, "no-wall-clock"), 1u);
  for (const Finding& f : findings) {
    if (f.rule == "no-wall-clock") {
      EXPECT_EQ(f.file, "src/protocols/bad.cpp");
    }
  }
}

TEST(LintPerfPurity, ModelHeadersMayNotIncludeTheMeasurementLayer) {
  const auto findings = Lint(
      {{"src/protocols/bad.h", "#include \"perf/profiler.h\"\n"},
       {"src/baselines/bad2.h", "#include \"support/stopwatch.h\"\n"},
       {"src/radio/bad3.cpp", "#include \"perf/profiler.h\"\n"},
       {"src/faults/bad4.cpp", "#include \"support/stopwatch.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(FlaggedFiles(findings, "layer-dag"),
            (std::vector<std::string>{"src/baselines/bad2.h",
                                      "src/faults/bad4.cpp",
                                      "src/protocols/bad.h",
                                      "src/radio/bad3.cpp"}));
}

TEST(LintPerfPurity, DriverCppAndForwardDeclarationPass) {
  const auto findings = Lint(
      {// Driver translation units place spans; that is the sanctioned path.
       {"src/protocols/driver.cpp", "#include \"perf/profiler.h\"\n"},
       // Headers hold only a forward declaration and a raw pointer.
       {"src/protocols/ok.h",
        "namespace perf { class Profiler; }\n"
        "struct Cfg { perf::Profiler* profiler = nullptr; };\n"},
       // The perf layer may of course include itself.
       {"src/perf/report.cpp", "#include \"perf/profiler.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(CountRule(findings, "layer-dag"), 0u);
}

TEST(LintPerfPurity, TimingValuesAreBannedFromModelCode) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp",
        "double budget(const Timer& t) { return t.elapsed_ms(); }\n"},
       {"src/radio/bad2.cpp", "Stopwatch sw;\n"},
       // Outside the model zone the same identifiers are fine.
       {"src/perf/ok.cpp", "Stopwatch sw;\n"},
       {"tools/ok2.cpp", "double x(const Timer& t) { return t.wall_ms(); }\n"}});
  EXPECT_EQ(CountRule(findings, "perf-purity-flow"), 2u);
  for (const Finding& f : findings) {
    if (f.rule == "perf-purity-flow") {
      EXPECT_TRUE(f.file == "src/protocols/bad.cpp" ||
                  f.file == "src/radio/bad2.cpp")
          << f.file;
    }
  }
}

TEST(LintPerfPurity, WriteOnlyProfilerSurfacePasses) {
  // What the instrumented drivers actually do: spans and counters, no
  // timing value ever read back.
  const auto findings = Lint(
      {{"src/protocols/driver.cpp",
        "void drive(const Cfg& cfg) {\n"
        "  perf::PerfSpan span(cfg.profiler, \"drive.run\");\n"
        "  if (cfg.profiler != nullptr) cfg.profiler->count(\"slots\", 7);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "perf-purity-flow"), 0u);
  EXPECT_EQ(Unwaived(findings), 0u);
}

TEST(LintPerfPurity, WaiverSuppressesPerfPurityFinding) {
  const auto findings = Lint(
      {{"src/protocols/waived.h",
        "// radiomc-lint: allow(layer-dag) reason=fixture\n"
        "#include \"perf/profiler.h\"\n"}},
      RepoLayers());
  EXPECT_EQ(CountRule(findings, "layer-dag", /*waived_only=*/true), 1u);
  EXPECT_EQ(Unwaived(findings), 0u);
}

TEST(LintPerfPurity, UnguardedProfilerDereferenceIsAHubFinding) {
  // Profiler* / SlotHook* joined the optional-observability pointer set.
  const auto findings = Lint(
      {{"src/protocols/bad.cpp",
        "struct Cfg { Profiler* profiler = nullptr; };\n"
        "void run(const Cfg& cfg) {\n"
        "  cfg.profiler->count(\"x\");\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 1u);
}

// ---------------------------------------------------------------------------
// Family: telemetry.
// ---------------------------------------------------------------------------

namespace fixtures {

const char kUnguardedHub[] =
    "struct Cfg { TelemetryHub* telemetry = nullptr; };\n"
    "void run(const Cfg& cfg) {\n"
    "  cfg.telemetry->counter();\n"
    "}\n";

const char kGuardedHub[] =
    "struct Cfg { TelemetryHub* telemetry = nullptr; };\n"
    "void run(const Cfg& cfg) {\n"
    "  if (cfg.telemetry != nullptr) {\n"
    "    cfg.telemetry->counter();\n"
    "  }\n"
    "}\n";

// Bare hub field declaration for the flow-aware guard tests to build on.
const char kHubField[] = "struct Cfg { TraceSink* trace = nullptr; };\n";

}  // namespace fixtures

TEST(LintTelemetry, FlagsUnguardedHubDereference) {
  const auto findings = Lint({{"src/protocols/bad.cpp",
                               fixtures::kUnguardedHub}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 1u);
}

TEST(LintTelemetry, NullGuardSilencesHubDereference) {
  const auto findings = Lint({{"src/protocols/ok.cpp",
                               fixtures::kGuardedHub}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 0u);
}

TEST(LintTelemetry, TruthinessAndShortCircuitGuardsCount) {
  const auto findings = Lint(
      {{"src/protocols/ok.cpp",
        "struct Cfg { TraceSink* trace = nullptr; };\n"
        "void a(const Cfg& cfg) {\n"
        "  if (cfg.trace) cfg.trace->flush();\n"
        "}\n"
        "void b(const Cfg& cfg) {\n"
        "  bool on = cfg.trace && cfg.trace->ok();\n"
        "  (void)on;\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 0u);
}

TEST(LintTelemetry, GuardInOneFunctionDoesNotLeakIntoAnother) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp",
        "struct Cfg { TelemetryHub* telemetry = nullptr; };\n"
        "void a(const Cfg& cfg) {\n"
        "  if (cfg.telemetry != nullptr) cfg.telemetry->counter();\n"
        "}\n"
        "void b(const Cfg& cfg) {\n"
        "  cfg.telemetry->counter();\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 1u);
}

TEST(LintTelemetry, SameNameOtherPointerTypeIsNotAHub) {
  // A local `Trace* trace` must not inherit the cross-file TraceSink field
  // name — per-file shadowing erases it.
  const auto findings = Lint(
      {{"src/protocols/decl.h", "struct C { TraceSink* trace = nullptr; };\n"},
       {"src/analysis/reader.cpp",
        "void parse(Trace* trace) {\n"
        "  trace->push_back(1);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 0u);
}

TEST(LintTelemetry, WaiverSuppressesHubFinding) {
  const auto findings = Lint(
      {{"src/protocols/waived.cpp",
        "struct Cfg { TelemetryHub* telemetry = nullptr; };\n"
        "void run(const Cfg& cfg) {\n"
        "  // radiomc-lint: allow(hub-null-check) reason=caller checked\n"
        "  cfg.telemetry->counter();\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "hub-null-check", /*waived_only=*/true), 1u);
  EXPECT_EQ(Unwaived(findings), 0u);
}

TEST(LintTelemetry, TraceKindDriftIsFlaggedBothWays) {
  const std::string table =
      "inline constexpr std::string_view kTraceLineKinds[] = {\n"
      "    \"schema\", \"tx\", \"stale\"};\n";
  const std::string sink =
      "void S::emit() {\n"
      "  w.member(\"ev\", \"schema\");\n"
      "  event_line(\"tx\", t, n, ch, &m, 0);\n"
      "  w.member(\"ev\", \"bogus\");\n"
      "}\n";
  const auto findings = Lint({{"src/analysis/trace_event.h", table},
                              {"src/telemetry/jsonl_sink.cpp", sink}});
  // "bogus" emitted but not in the table; "stale" in the table but never
  // emitted.
  EXPECT_EQ(CountRule(findings, "trace-kind-table"), 2u);
  bool saw_writer_drift = false, saw_stale_entry = false;
  for (const Finding& f : findings) {
    if (f.rule != "trace-kind-table") continue;
    if (f.file == "src/telemetry/jsonl_sink.cpp") saw_writer_drift = true;
    if (f.file == "src/analysis/trace_event.h") saw_stale_entry = true;
  }
  EXPECT_TRUE(saw_writer_drift);
  EXPECT_TRUE(saw_stale_entry);
}

TEST(LintTelemetry, MatchingKindTablePasses) {
  const auto findings = Lint(
      {{"src/analysis/trace_event.h",
        "inline constexpr std::string_view kTraceLineKinds[] = {\n"
        "    \"schema\", \"tx\"};\n"},
       {"src/telemetry/jsonl_sink.cpp",
        "void S::emit() {\n"
        "  w.member(\"ev\", \"schema\");\n"
        "  event_line(\"tx\", t, n, ch, &m, 0);\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "trace-kind-table"), 0u);
}

TEST(LintTelemetry, MissingKindTableIsItselfAFinding) {
  const auto findings = Lint({{"src/telemetry/jsonl_sink.cpp",
                               "void S::emit() {\n"
                               "  w.member(\"ev\", \"schema\");\n"
                               "}\n"}});
  EXPECT_EQ(CountRule(findings, "trace-kind-table"), 1u);
}

// ---------------------------------------------------------------------------
// Family: exhaustiveness.
// ---------------------------------------------------------------------------

TEST(LintExhaustiveness, FlagsDefaultOnClosedModelEnum) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp",
        "bool up(MsgKind k) {\n"
        "  switch (k) {\n"
        "    case MsgKind::kData: return true;\n"
        "    default: return false;\n"
        "  }\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "switch-default"), 1u);
}

TEST(LintExhaustiveness, OtherEnumsAndFullEnumerationsPass) {
  const auto findings = Lint(
      {{"src/protocols/ok.cpp",
        "int a(Color c) {\n"
        "  switch (c) {\n"
        "    case Color::kRed: return 1;\n"
        "    default: return 0;\n"  // not a watched enum
        "  }\n"
        "}\n"
        "bool b(RunStatus s) {\n"
        "  switch (s) {\n"
        "    case RunStatus::kOk: return true;\n"
        "    case RunStatus::kDegraded: return false;\n"
        "    case RunStatus::kFailed: return false;\n"
        "  }\n"
        "  return false;\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "switch-default"), 0u);
}

TEST(LintExhaustiveness, NestedSwitchLabelsStayLocal) {
  // The inner switch is over a watched enum and has no default; the outer
  // switch's default must not be attributed to the inner enum.
  const auto findings = Lint(
      {{"src/protocols/ok.cpp",
        "int f(int x, MsgKind k) {\n"
        "  switch (x) {\n"
        "    case 0:\n"
        "      switch (k) {\n"
        "        case MsgKind::kData: return 1;\n"
        "        case MsgKind::kAck: return 2;\n"
        "      }\n"
        "      return 3;\n"
        "    default: return 4;\n"
        "  }\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "switch-default"), 0u);
}

TEST(LintExhaustiveness, WaiverSuppressesSwitchDefault) {
  const auto findings = Lint(
      {{"src/protocols/waived.cpp",
        "bool up(MsgKind k) {\n"
        "  switch (k) {\n"
        "    case MsgKind::kData: return true;\n"
        "    // radiomc-lint: allow(switch-default) reason=fixture\n"
        "    default: return false;\n"
        "  }\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, "switch-default", /*waived_only=*/true), 1u);
  EXPECT_EQ(Unwaived(findings), 0u);
}

// ---------------------------------------------------------------------------
// Family: hygiene (unused waivers) + options.
// ---------------------------------------------------------------------------

TEST(LintHygiene, UnusedWaiverIsAFinding) {
  const auto findings = Lint(
      {{"src/protocols/stale.cpp",
        "// radiomc-lint: allow(no-raw-random) reason=long gone\n"
        "int x = 0;\n"}});
  EXPECT_EQ(CountRule(findings, "unused-waiver"), 1u);
  EXPECT_EQ(Unwaived(findings), 1u);
}

TEST(LintHygiene, WaiverNamingUnknownRuleIsCalledOut) {
  const auto findings = Lint(
      {{"src/protocols/typo.cpp",
        "// radiomc-lint: allow(no-raw-randomness)\n"
        "int x = 0;\n"}});
  ASSERT_EQ(CountRule(findings, "unused-waiver"), 1u);
  for (const Finding& f : findings) {
    if (f.rule == "unused-waiver") {
      EXPECT_NE(f.message.find("unknown rule"), std::string::npos);
    }
  }
}

TEST(LintOptionsTest, OnlyRulesRestrictsTheRun) {
  LintOptions opt;
  opt.only_rules = {"no-raw-random"};
  const auto findings = Lint({{"src/protocols/bad.cpp",
                               "#include <unordered_map>\n"
                               "std::unordered_map<int, int> m;\n"
                               "int r() { return rand(); }\n"}},
                             opt);
  EXPECT_EQ(CountRule(findings, "no-raw-random"), 1u);
  EXPECT_EQ(CountRule(findings, "unordered-container"), 0u);
}

TEST(LintCatalog, CoversAllSevenFamilies) {
  std::vector<std::string> families;
  for (const auto& r : radiomc::lint::rule_catalog())
    families.emplace_back(r.family);
  for (const char* want : {"determinism", "model-purity", "perf-purity",
                           "telemetry", "exhaustiveness", "sharding",
                           "hygiene"}) {
    EXPECT_NE(std::find(families.begin(), families.end(), want),
              families.end())
        << "missing family " << want;
  }
}

// ---------------------------------------------------------------------------
// Trace-kind round trip: the live writer against the live table.
// ---------------------------------------------------------------------------

std::string EvValue(const std::string& line) {
  const std::string key = "\"ev\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return {};
  const std::size_t end = line.find('"', at + key.size());
  return line.substr(at + key.size(), end - at - key.size());
}

TEST(TraceKindRoundTrip, EveryEmittedEvKindIsInTheTable) {
  std::ostringstream out;
  {
    radiomc::telemetry::JsonlOptions opt;
    opt.aggregate_every = 4;  // force "agg" lines
    opt.max_events = 2;       // force a "truncated" record
    radiomc::telemetry::JsonlTraceSink sink(out, opt);
    radiomc::Message m;
    m.kind = radiomc::MsgKind::kData;
    m.origin = 1;
    m.seq = 0;
    sink.on_transmit(/*t=*/0, /*sender=*/1, /*ch=*/0, m);   // "tx"
    sink.on_deliver(/*t=*/0, /*receiver=*/2, /*ch=*/0, m);  // "rx"
    sink.on_collision(/*t=*/1, /*receiver=*/3, /*ch=*/0,
                      /*tx_neighbors=*/2);                  // "coll", dropped
    sink.on_collision(/*t=*/9, /*receiver=*/3, /*ch=*/0, 2);  // rolls window
    sink.finish();  // flushes "schema", final "agg", "truncated"
    EXPECT_TRUE(sink.truncated());
  }
  std::istringstream lines(out.str());
  std::string line;
  std::size_t checked = 0;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const std::string ev = EvValue(line);
    ASSERT_FALSE(ev.empty()) << "line without ev kind: " << line;
    EXPECT_TRUE(radiomc::analysis::is_trace_line_kind(ev))
        << "JsonlTraceSink emitted ev kind \"" << ev
        << "\" missing from kTraceLineKinds";
    seen.push_back(ev);
    ++checked;
  }
  EXPECT_GE(checked, 5u);  // schema, tx, rx, agg, truncated at minimum
  for (const char* want : {"schema", "tx", "rx", "agg", "truncated"})
    EXPECT_NE(std::find(seen.begin(), seen.end(), want), seen.end())
        << "expected an \"" << want << "\" line in the stream";
}

TEST(TraceKindRoundTrip, TableRejectsUnknownKinds) {
  EXPECT_TRUE(radiomc::analysis::is_trace_line_kind("coll"));
  EXPECT_FALSE(radiomc::analysis::is_trace_line_kind("bogus"));
  EXPECT_FALSE(radiomc::analysis::is_trace_line_kind(""));
}

// ---------------------------------------------------------------------------
// RNG stream audit (semantic, cross-TU).
// ---------------------------------------------------------------------------

TEST(LintRngAudit, BareLiteralSplitTagIsFlagged) {
  const auto findings = Lint(
      {{"src/protocols/x.cpp", "void f(Rng& m) { Rng a = m.split(0x12); }\n"}});
  ASSERT_EQ(CountRule(findings, "rng-stream-audit"), 1u);
  EXPECT_NE(findings[0].message.find("bare literal split tag 0x12"),
            std::string::npos);
}

TEST(LintRngAudit, NamedConstantTagPassesEvenAcrossFiles) {
  const auto findings = Lint(
      {{"src/support/rng_tags.h",
        "inline constexpr std::uint64_t kX = 0x12;\n"},
       {"src/protocols/x.cpp",
        "void f(Rng& m) { Rng a = m.split(rng_tags::kX); }\n"}});
  EXPECT_EQ(CountRule(findings, "rng-stream-audit"), 0u);
}

TEST(LintRngAudit, DuplicateTagOnOneParentIsFlaggedAtTheSecondSite) {
  const auto findings = Lint(
      {{"src/protocols/x.cpp",
        "constexpr std::uint64_t kX = 7;\n"
        "void f(Rng& m) {\n"
        "  Rng a = m.split(kX);\n"
        "  Rng b = m.split(kX);\n"
        "}\n"}});
  ASSERT_EQ(CountRule(findings, "rng-stream-audit"), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("drawn twice from parent 'm'"),
            std::string::npos);
}

TEST(LintRngAudit, SameTagOnDifferentParentsOrFunctionsPasses) {
  const auto findings = Lint(
      {{"src/protocols/x.cpp",
        "constexpr std::uint64_t kX = 7;\n"
        "void f(Rng& m, Rng& o) { Rng a = m.split(kX); Rng b = o.split(kX); }\n"
        "void g(Rng& m) { Rng c = m.split(kX); }\n"}});
  EXPECT_EQ(CountRule(findings, "rng-stream-audit"), 0u);
}

TEST(LintRngAudit, CallComputedTagIsFlaggedOnlyInDeterministicZones) {
  const char* body = "void f(Rng& m, int v) { Rng a = m.split(h(v)); }\n";
  const auto bad = Lint({{"src/protocols/x.cpp", body}});
  EXPECT_EQ(CountRule(bad, "rng-stream-audit"), 1u);
  // Pure index arithmetic stays legal (per-entity streams).
  const auto ok = Lint(
      {{"src/protocols/y.cpp",
        "void f(Rng& m, int v) { Rng a = m.split(2 * v + 1); }\n"}});
  EXPECT_EQ(CountRule(ok, "rng-stream-audit"), 0u);
  // Offline analysis code is not on a deterministic path.
  const auto offline = Lint({{"src/analysis/x.cpp", body}});
  EXPECT_EQ(CountRule(offline, "rng-stream-audit"), 0u);
}

TEST(LintRngAudit, FixedLiteralSeedRngIsFlaggedOutsideRngSupport) {
  const auto findings =
      Lint({{"src/protocols/x.cpp", "void f() { Rng r(42); }\n"}});
  ASSERT_EQ(CountRule(findings, "rng-stream-audit"), 1u);
  EXPECT_NE(findings[0].message.find("fixed literal seed 0x2a"),
            std::string::npos);
  const auto support = Lint(
      {{"src/support/rng.cpp", "void f() { Rng r(42); }\n"}});
  EXPECT_EQ(CountRule(support, "rng-stream-audit"), 0u);
}

TEST(LintRngAudit, WaiverSuppressesAuditFinding) {
  const auto findings = Lint(
      {{"src/protocols/x.cpp",
        "// radiomc-lint: allow(rng-stream-audit) reason=frozen stream\n"
        "void f() { Rng r(42); }\n"}});
  EXPECT_EQ(Unwaived(findings), 0u);
  EXPECT_EQ(CountRule(findings, "rng-stream-audit", /*waived_only=*/true), 1u);
}

TEST(LintRngAudit, RegistryValueCollisionIsFlagged) {
  const auto findings = Lint(
      {{"src/support/rng_tags.h",
        "inline constexpr std::uint64_t kA = 0x33;\n"
        "inline constexpr std::uint64_t kB = 0x33;\n"}});
  ASSERT_EQ(CountRule(findings, "rng-stream-audit"), 1u);
  EXPECT_NE(findings[0].message.find("share value 0x33"), std::string::npos);
  // Distinct values pass; collisions outside the registry are not the
  // registry's problem (local tags may legitimately reuse small values).
  const auto ok = Lint(
      {{"src/support/rng_tags.h",
        "inline constexpr std::uint64_t kA = 0x33;\n"
        "inline constexpr std::uint64_t kB = 0x34;\n"},
       {"src/protocols/x.cpp",
        "constexpr std::uint64_t kLocal = 0x33;\n"
        "void f(Rng& m) { Rng a = m.split(kLocal); }\n"}});
  EXPECT_EQ(CountRule(ok, "rng-stream-audit"), 0u);
}

TEST(LintRngAudit, InventoryListsRegistryAndUsedTags) {
  const auto result = Analyze(
      {{"src/support/rng_tags.h",
        "inline constexpr std::uint64_t kA = 0x33;\n"},
       {"src/protocols/x.cpp",
        "constexpr std::uint64_t kLocal = 0x44;\n"
        "constexpr std::uint64_t kUnused = 0x55;\n"
        "void f(Rng& m) { Rng a = m.split(kLocal); }\n"}});
  std::vector<std::string> names;
  for (const auto& t : result.rng_tags) names.push_back(t.name);
  // Registry constants always appear; other constants only when used as a
  // split tag somewhere.
  EXPECT_NE(std::find(names.begin(), names.end(), "kA"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "kLocal"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "kUnused"), names.end());
  EXPECT_EQ(result.split_sites, 1u);
}

// ---------------------------------------------------------------------------
// Layer DAG (semantic, manifest-driven).
// ---------------------------------------------------------------------------

LintOptions WithManifest(std::string text) {
  LintOptions opt;
  opt.layers_manifest = std::move(text);
  return opt;
}

constexpr const char* kTwoLayers =
    "layer alpha src/alpha\n"
    "layer beta  src/beta\n"
    "allow alpha -> beta\n";

TEST(LintLayerDag, DeclaredEdgePassesUndeclaredEdgeFails) {
  const auto findings = Lint({{"src/alpha/a.h", "#include \"beta/b.h\"\n"},
                              {"src/beta/b.h", "#include \"alpha/a.h\"\n"}},
                             WithManifest(kTwoLayers));
  ASSERT_EQ(CountRule(findings, "layer-dag"), 1u);
  EXPECT_EQ(findings[0].file, "src/beta/b.h");
  EXPECT_NE(findings[0].message.find("include edge beta -> alpha"),
            std::string::npos);
}

TEST(LintLayerDag, IntraLayerAngledAndUnlayeredIncludesPass) {
  const auto findings = Lint(
      {{"src/alpha/a.h",
        "#include \"alpha/other.h\"\n#include <vector>\n"
        "#include \"nonlayer/x.h\"\n"}},
      WithManifest(kTwoLayers));
  EXPECT_EQ(CountRule(findings, "layer-dag"), 0u);
}

TEST(LintLayerDag, NoManifestDisablesTheAnalysis) {
  const auto findings = Lint({{"src/beta/b.h", "#include \"alpha/a.h\"\n"}});
  EXPECT_EQ(CountRule(findings, "layer-dag"), 0u);
}

TEST(LintLayerDag, FileOutsideEveryLayerIsFlaggedOnce) {
  const auto findings = Lint(
      {{"src/gamma/g.h", "#include \"alpha/a.h\"\n#include \"beta/b.h\"\n"}},
      WithManifest(kTwoLayers));
  ASSERT_EQ(CountRule(findings, "layer-dag"), 1u);
  EXPECT_NE(findings[0].message.find("not covered by any layer"),
            std::string::npos);
}

TEST(LintLayerDag, DeclaredCycleIsUnwaivable) {
  LintOptions opt = WithManifest(
      "layer alpha src/alpha\n"
      "layer beta  src/beta\n"
      "allow alpha -> beta\n"
      "# waiver comments have no power over the manifest itself\n"
      "allow beta -> alpha\n");
  const auto findings = Lint({{"src/alpha/a.h", "int x;\n"}}, opt);
  ASSERT_EQ(CountRule(findings, "layer-dag"), 1u);
  EXPECT_EQ(findings[0].file, ".lint-layers");
  EXPECT_FALSE(findings[0].waived);
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
  EXPECT_EQ(Unwaived(findings), 1u);
}

TEST(LintLayerDag, ParseErrorsCarrySpecificMessages) {
  LintOptions opt = WithManifest(
      "layer alpha\n"                    // 1: missing directory
      "layer beta src/beta\n"
      "layer beta src/beta2\n"           // 3: redeclared
      "allow beta\n"                     // 4: malformed allow
      "allow beta -> beta\n"             // 5: self edge
      "layer delta src/delta\n"
      "allow beta -> delta\n"
      "allow beta -> delta\n"            // 8: duplicate edge
      "allow beta -> ghost\n"            // 9: undeclared layer
      "frobnicate beta\n");              // 10: unknown directive
  const auto findings = Lint({{"src/beta/b.h", "int x;\n"}}, opt);
  const auto has = [&](int line, std::string_view needle) {
    for (const Finding& f : findings) {
      if (f.rule == "layer-dag" && f.line == line &&
          f.message.find(needle) != std::string::npos &&
          f.file == ".lint-layers")
        return true;
    }
    return false;
  };
  EXPECT_TRUE(has(1, "'layer' needs a name and at least one directory"));
  EXPECT_TRUE(has(3, "layer 'beta' redeclared (first declared on line 2)"));
  EXPECT_TRUE(has(4, "'allow' needs the form 'allow <from> -> <to>'"));
  EXPECT_TRUE(has(5, "self edge 'beta -> beta' is implicit"));
  EXPECT_TRUE(has(8, "edge 'beta -> delta' declared twice"));
  EXPECT_TRUE(has(9, "allow references undeclared layer 'ghost'"));
  EXPECT_TRUE(has(10, "unknown directive 'frobnicate'"));
}

TEST(LintLayerDag, WaiverOnTheIncludeLineWorks) {
  const auto findings = Lint(
      {{"src/beta/b.h",
        "// radiomc-lint: allow(layer-dag) reason=transitional\n"
        "#include \"alpha/a.h\"\n"}},
      WithManifest(kTwoLayers));
  EXPECT_EQ(Unwaived(findings), 0u);
  EXPECT_EQ(CountRule(findings, "layer-dag", /*waived_only=*/true), 1u);
}

TEST(LintLayerDag, ReportCountsLayersAndEdges) {
  const auto result =
      Analyze({{"src/alpha/a.h", "int x;\n"}}, WithManifest(kTwoLayers));
  EXPECT_EQ(result.layers_declared, 2u);
  EXPECT_EQ(result.layer_edges_declared, 1u);
}

TEST(LintLayerDag, FileEntryClaimsOneFileOfADirectory) {
  const auto findings = Lint(
      {{"src/model/a.h", "#include \"support/rng.h\"\n"
                         "#include \"support/stopwatch.h\"\n"}},
      WithManifest("layer support src/support\n"
                   "layer clock   src/support/stopwatch.h\n"
                   "layer model   src/model\n"
                   "allow model -> support\n"));
  ASSERT_EQ(CountRule(findings, "layer-dag"), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("include edge model -> clock"),
            std::string::npos);
}

TEST(LintLayerDag, HeaderSetEntrySplitsHeadersFromTheirDriverCpp) {
  const auto findings = Lint(
      {{"src/beta/b.cpp", "#include \"beta/b.h\"\n#include \"alpha/a.h\"\n"},
       {"src/beta/b.h", "#include \"alpha/a.h\"\n"},
       {"src/alpha/a.cpp", "#include \"beta/b.h\"\n"}},
      WithManifest("layer alpha    src/alpha\n"
                   "layer beta     src/beta\n"
                   "layer beta-api src/beta/*.h\n"
                   "allow alpha -> beta-api\n"
                   "allow beta -> alpha\n"
                   "allow beta -> beta-api\n"));
  ASSERT_EQ(CountRule(findings, "layer-dag"), 1u);
  EXPECT_EQ(findings[0].file, "src/beta/b.h");
  EXPECT_NE(findings[0].message.find("include edge beta-api -> alpha"),
            std::string::npos);
}

TEST(LintLayerDag, MostSpecificEntryWinsWhateverTheOrder) {
  const auto m = radiomc::lint::parse_layer_manifest(
      "layer file    src/x/one.h\n"
      "layer headers src/x/*.h\n"
      "layer deep    src/x/deep\n"
      "layer dir     src/x\n");
  ASSERT_TRUE(m.errors.empty());
  using radiomc::lint::layer_of;
  EXPECT_EQ(layer_of(m, "src/x/one.h"), "file");
  EXPECT_EQ(layer_of(m, "x/one.h"), "file");  // as a quoted include
  EXPECT_EQ(layer_of(m, "/abs/repo/src/x/one.h"), "file");
  EXPECT_EQ(layer_of(m, "src/x/two.h"), "headers");
  EXPECT_EQ(layer_of(m, "x/two.h"), "headers");
  EXPECT_EQ(layer_of(m, "src/x/two.cpp"), "dir");
  EXPECT_EQ(layer_of(m, "src/x/deep/y.h"), "deep");  // not directly in src/x
  EXPECT_EQ(layer_of(m, "x/deep/y.cpp"), "deep");
  EXPECT_EQ(layer_of(m, "src/other/z.h"), "");
  EXPECT_EQ(layer_of(m, "one.h"), "");  // no directory, no layer
}

TEST(LintLayerDag, GlobOtherThanHeadersOfOneDirectoryIsRejected) {
  const auto m = radiomc::lint::parse_layer_manifest(
      "layer a src/a/*.cpp\n"
      "layer b src/*/b.h\n"
      "layer c src/c/*.h\n");
  ASSERT_EQ(m.errors.size(), 2u);
  EXPECT_EQ(m.errors[0].line, 1);
  EXPECT_EQ(m.errors[0].message,
            "layer 'a': unsupported glob 'src/a/*.cpp' (the only glob is "
            "'<dir>/*.h', the headers of one directory)");
  EXPECT_EQ(m.errors[1].line, 2);
  EXPECT_NE(m.errors[1].message.find("unsupported glob 'src/*/b.h'"),
            std::string::npos);
  ASSERT_EQ(m.layers.size(), 3u);
  ASSERT_EQ(m.layers[2].entries.size(), 1u);
  EXPECT_EQ(m.layers[2].entries[0].kind,
            radiomc::lint::LayerEntry::Kind::kHeaders);
  EXPECT_EQ(m.layers[2].entries[0].path, "src/c");
}

// ---------------------------------------------------------------------------
// Flow-aware hub-null-check (early returns, inverted guards, else branches).
// ---------------------------------------------------------------------------

TEST(LintTelemetryFlow, EarlyReturnGuardCoversTheRestOfTheScope) {
  const auto findings = Lint(
      {{"src/protocols/ok.cpp", fixtures::kHubField +
            std::string("void f(Cfg& cfg) {\n"
                        "  if (cfg.trace == nullptr) return;\n"
                        "  cfg.trace->flush();\n"
                        "}\n")}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 0u);
}

TEST(LintTelemetryFlow, NegatedTruthinessEarlyReturnCounts) {
  const auto findings = Lint(
      {{"src/protocols/ok.cpp", fixtures::kHubField +
            std::string("void f(Cfg& cfg) {\n"
                        "  if (!cfg.trace) return;\n"
                        "  cfg.trace->flush();\n"
                        "}\n")}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 0u);
}

TEST(LintTelemetryFlow, DereferenceInsideInvertedGuardIsFlagged) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp", fixtures::kHubField +
            std::string("void f(Cfg& cfg) {\n"
                        "  if (!cfg.trace) { cfg.trace->flush(); }\n"
                        "}\n")}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 1u);
}

TEST(LintTelemetryFlow, NonTerminatingNullBranchDoesNotGuardTheTail) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp", fixtures::kHubField +
            std::string("void f(Cfg& cfg) {\n"
                        "  if (cfg.trace == nullptr) { int x = 0; (void)x; }\n"
                        "  cfg.trace->flush();\n"
                        "}\n")}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 1u);
}

TEST(LintTelemetryFlow, ElseBranchOfPositiveGuardIsNotGuarded) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp", fixtures::kHubField +
            std::string("void f(Cfg& cfg) {\n"
                        "  if (cfg.trace) { cfg.trace->flush(); }\n"
                        "  else { cfg.trace->flush(); }\n"
                        "}\n")}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 1u);
}

TEST(LintTelemetryFlow, GuardScopeEndsWithTheBrace) {
  const auto findings = Lint(
      {{"src/protocols/bad.cpp", fixtures::kHubField +
            std::string("void f(Cfg& cfg) {\n"
                        "  if (cfg.trace) { cfg.trace->flush(); }\n"
                        "  cfg.trace->flush();\n"
                        "}\n")}});
  EXPECT_EQ(CountRule(findings, "hub-null-check"), 1u);
}

// ---------------------------------------------------------------------------
// Shard-safety report.
// ---------------------------------------------------------------------------

TEST(LintShardSafety, UnclassifiedSlotLoopMemberIsAFinding) {
  const auto result = Analyze(
      {{"src/radio/network.cpp",
        "void RadioNetwork::step() {\n"
        "  mystery_ += 1;\n"
        "  now_ += 1;\n"
        "}\n"}});
  ASSERT_EQ(CountRule(result.findings, "shard-safety"), 1u);
  EXPECT_NE(result.findings[0].message.find("RadioNetwork::mystery_"),
            std::string::npos);
  // Both touched members appear as rows; the known one is classified.
  ASSERT_EQ(result.shard_safety.size(), 2u);
  bool saw_known = false, saw_unknown = false;
  for (const auto& r : result.shard_safety) {
    if (r.member == "now_") {
      EXPECT_EQ(r.classification, "barrier-mergeable");
      saw_known = true;
    }
    if (r.member == "mystery_") {
      EXPECT_EQ(r.classification, "unclassified");
      saw_unknown = true;
    }
  }
  EXPECT_TRUE(saw_known);
  EXPECT_TRUE(saw_unknown);
}

TEST(LintShardSafety, ReadOnlyMemberWrittenIsDriftFinding) {
  const auto result = Analyze(
      {{"src/radio/network.cpp",
        "void RadioNetwork::step() { cfg_ = Config{}; }\n"}});
  ASSERT_EQ(CountRule(result.findings, "shard-safety"), 1u);
  EXPECT_NE(result.findings[0].message.find("classified read-only"),
            std::string::npos);
}

TEST(LintShardSafety, NonSlotLoopFunctionsAreExempt) {
  const auto result = Analyze(
      {{"src/radio/network.cpp",
        "void RadioNetwork::attach() { mystery_ += 1; }\n"}});
  EXPECT_EQ(CountRule(result.findings, "shard-safety"), 0u);
  EXPECT_TRUE(result.shard_safety.empty());
}

TEST(LintShardSafety, WaiverSuppressesTheFinding) {
  const auto result = Analyze(
      {{"src/radio/network.cpp",
        "void RadioNetwork::step() {\n"
        "  // radiomc-lint: allow(shard-safety) reason=migration in flight\n"
        "  mystery_ += 1;\n"
        "}\n"}});
  EXPECT_EQ(Unwaived(result.findings), 0u);
  EXPECT_EQ(CountRule(result.findings, "shard-safety", /*waived_only=*/true),
            1u);
}

// ---------------------------------------------------------------------------
// radiomc.lint/v2 report round trip (through the real JSON parser).
// ---------------------------------------------------------------------------

TEST(LintReportV2, RoundTripsThroughTheJsonParser) {
  const auto result = Analyze(
      {{"src/radio/network.cpp",
        "void RadioNetwork::step() {\n"
        "  now_ += 1;\n"
        "  mystery_ += 1;\n"
        "}\n"},
       {"src/support/rng_tags.h",
        "inline constexpr std::uint64_t kA = 0x33;\n"},
       {"src/alpha/a.h", "#include \"beta/b.h\"\n"}},
      WithManifest(kTwoLayers));
  std::ostringstream os;
  radiomc::lint::write_json_report(os, result, /*wall_ms=*/1.5);

  const auto parsed = radiomc::telemetry::parse_json(os.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const radiomc::telemetry::JsonValue& doc = parsed.value;
  EXPECT_EQ(doc.at("schema").as_string(), "radiomc.lint/v2");

  const auto& findings = doc.at("findings").items();
  EXPECT_EQ(findings.size(), result.findings.size());
  for (const auto& f : findings) {
    EXPECT_FALSE(f.at("rule").as_string().empty());
    EXPECT_FALSE(f.at("file").as_string().empty());
  }

  const auto& rows = doc.at("shard_safety").items();
  ASSERT_EQ(rows.size(), result.shard_safety.size());
  bool saw_unclassified = false;
  for (const auto& r : rows) {
    EXPECT_FALSE(r.at("class").as_string().empty());
    if (r.at("class").as_string() == "unclassified") saw_unclassified = true;
  }
  EXPECT_TRUE(saw_unclassified);

  const auto& tags = doc.at("rng_streams").at("tags").items();
  ASSERT_EQ(tags.size(), result.rng_tags.size());
  ASSERT_FALSE(tags.empty());
  EXPECT_EQ(tags[0].at("value").as_string(), "0x33");

  EXPECT_EQ(doc.at("layers").at("declared").as_int(), 2);
  EXPECT_EQ(doc.at("layers").at("edges").as_int(), 1);

  const auto& footer = doc.at("footer");
  EXPECT_EQ(footer.at("files_scanned").as_int(), 3);
  EXPECT_EQ(footer.at("total").as_int(),
            static_cast<std::int64_t>(result.findings.size()));
  EXPECT_NEAR(footer.at("wall_ms").as_double(), 1.5, 1e-9);
}

// ---------------------------------------------------------------------------
// The repo itself must lint clean (the CI gate, run as a test).
// ---------------------------------------------------------------------------

TEST(LintRepo, TreeHasNoUnwaivedFindings) {
  const std::vector<std::string> roots = {RADIOMC_SOURCE_DIR "/src",
                                          RADIOMC_SOURCE_DIR "/tools",
                                          RADIOMC_SOURCE_DIR "/bench"};
  const auto files = radiomc::lint::load_tree(roots);
  ASSERT_GT(files.size(), 50u) << "load_tree found suspiciously few sources";
  LintOptions opt;
  opt.layers_manifest = ReadWholeFile(RADIOMC_SOURCE_DIR "/.lint-layers");
  ASSERT_FALSE(opt.layers_manifest.empty())
      << "repo layer manifest .lint-layers is missing";
  const auto result = radiomc::lint::run_analyses(files, opt);
  for (const Finding& f : result.findings) {
    if (!f.waived)
      ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                    << f.message;
  }
  EXPECT_EQ(Unwaived(result.findings), 0u);
  // Every waiver in the tree must carry a reason.
  for (const Finding& f : result.findings) {
    if (f.waived)
      EXPECT_FALSE(f.waiver_reason.empty())
          << f.file << ":" << f.line << ": waiver without reason=";
  }
  // The shard-safety report must fully classify the live engine.
  EXPECT_GE(result.shard_safety.size(), 20u);
  for (const auto& r : result.shard_safety) {
    EXPECT_NE(r.classification, "unclassified")
        << r.owner << "::" << r.member;
  }
  // The tag registry is live and collision-free (collisions would have
  // been findings above); the real tree splits streams in many places.
  EXPECT_GE(result.rng_tags.size(), 15u);
  EXPECT_GE(result.split_sites, 30u);
  EXPECT_GE(result.layers_declared, 10u);
}

}  // namespace
