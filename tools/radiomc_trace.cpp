// radiomc_trace — offline analyzer for radiomc.trace/v2 JSONL traces
// (the --trace-out stream of radiomc_sim and the bench harness).
//
//   radiomc_trace report    FILE [--json OUT]
//   radiomc_trace lifecycle FILE [--origin N] [--seq S]
//   radiomc_trace audit     FILE [--strict] [--json OUT]
//
// `report` prints the trace summary, every conformance check and the
// anomaly scan, and can drop the combined radiomc.trace.report/v1 JSON
// document next to it. `lifecycle` reconstructs per-(origin, seq) flight
// records — hop-by-hop timeline, retransmissions, ack latency — either as
// a table or, with --origin/--seq, one flight in full detail. `audit`
// runs the theory-conformance checks (Decay reception >= 1/2, Thm 4.1
// advance rate >= mu, Thm 3.1 ack certainty, exactly-once delivery,
// prefix monotonicity, truncation refusal) and with --strict exits
// non-zero when any bound is violated — which is how the benches and CI
// turn every traced run into a correctness check.
//
// Exit codes: 0 ok; 1 audit violation (only with --strict); 2 unreadable
// or malformed trace / bad usage.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "analysis/anomaly.h"
#include "analysis/conformance.h"
#include "analysis/lifecycle.h"
#include "analysis/report.h"
#include "analysis/trace_reader.h"
#include "support/parse.h"

using namespace radiomc;
using namespace radiomc::analysis;

namespace {

int usage() {
  std::fprintf(stderr,
               "radiomc_trace <subcommand> FILE [options]\n"
               "\n"
               "subcommands:\n"
               "  report    FILE [--json OUT]        full summary: audit + "
               "anomalies + flights\n"
               "  lifecycle FILE [--origin N] [--seq S]\n"
               "                                     per-message flight "
               "records; filters select one flight\n"
               "  audit     FILE [--strict] [--json OUT]\n"
               "                                     conformance checks; "
               "--strict exits 1 on violation\n");
  return 2;
}

struct Cli {
  std::string sub;
  std::string file;
  bool strict = false;
  std::string json_out;
  std::optional<std::uint64_t> origin;
  std::optional<std::uint64_t> seq;
};

bool parse_cli(int argc, char** argv, Cli* cli) {
  if (argc < 3) return false;
  cli->sub = argv[1];
  cli->file = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      cli->strict = true;
    } else if (arg == "--json" && i + 1 < argc) {
      cli->json_out = argv[++i];
    } else if ((arg == "--origin" || arg == "--seq") && i + 1 < argc) {
      const std::optional<std::uint64_t> v = parse_u64(argv[++i]);
      if (!v) {
        std::fprintf(stderr, "radiomc_trace: bad %s '%s'\n", arg.c_str(),
                     argv[i]);
        return false;
      }
      if (arg == "--origin") {
        cli->origin = v;
      } else {
        cli->seq = v;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int cmd_report(const Cli& cli, const Trace& trace) {
  const auto flights = build_lifecycles(trace);
  const AuditReport audit = audit_trace(trace, flights);
  const AnomalyReport anomalies = scan_anomalies(trace);
  print_report(std::cout, trace, flights, audit, anomalies);
  if (!cli.json_out.empty()) {
    if (!write_report_file(cli.json_out, trace, flights, audit, anomalies)) {
      std::fprintf(stderr, "cannot write report file %s\n",
                   cli.json_out.c_str());
      return 2;
    }
    std::printf("\nreport: %s\n", cli.json_out.c_str());
  }
  return 0;
}

int cmd_lifecycle(const Cli& cli, const Trace& trace) {
  const auto flights = build_lifecycles(trace);
  if (!cli.origin && !cli.seq) {
    std::printf("flights: %zu\n", flights.size());
    print_flight_table(std::cout, flights);
    return 0;
  }
  bool found = false;
  for (const FlightRecord& f : flights) {
    if (cli.origin && f.origin != static_cast<NodeId>(*cli.origin)) continue;
    if (cli.seq && f.seq != static_cast<std::uint32_t>(*cli.seq)) continue;
    print_flight_detail(std::cout, f);
    found = true;
  }
  if (!found) {
    std::fprintf(stderr, "no flight matches the --origin/--seq filter\n");
    return 2;
  }
  return 0;
}

int cmd_audit(const Cli& cli, const Trace& trace) {
  const auto flights = build_lifecycles(trace);
  const AuditReport audit = audit_trace(trace, flights);
  print_audit(std::cout, audit);
  if (!cli.json_out.empty()) {
    const AnomalyReport anomalies = scan_anomalies(trace);
    if (!write_report_file(cli.json_out, trace, flights, audit, anomalies)) {
      std::fprintf(stderr, "cannot write report file %s\n",
                   cli.json_out.c_str());
      return 2;
    }
    std::printf("report: %s\n", cli.json_out.c_str());
  }
  if (!audit.pass && cli.strict) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) return usage();
  const TraceReadResult read = read_trace_file(cli.file);
  if (!read.ok) {
    if (read.line_no > 0) {
      std::fprintf(stderr, "%s:%llu: %s\n", cli.file.c_str(),
                   static_cast<unsigned long long>(read.line_no),
                   read.error.c_str());
    } else {
      std::fprintf(stderr, "%s: %s\n", cli.file.c_str(), read.error.c_str());
    }
    return 2;
  }
  try {
    if (cli.sub == "report") return cmd_report(cli, read.trace);
    if (cli.sub == "lifecycle") return cmd_lifecycle(cli, read.trace);
    if (cli.sub == "audit") return cmd_audit(cli, read.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
