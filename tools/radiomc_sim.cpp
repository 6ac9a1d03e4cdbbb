// radiomc_sim — command-line front end for the protocol suite.
//
//   radiomc_sim setup     --topology grid:8x8 [--seed S] [--anon BITS]
//   radiomc_sim collect   --topology udg:64 --k 32 [--seed S] [--no-mod3]
//   radiomc_sim broadcast --topology gnp:50:0.12 --k 16 [--window W]
//   radiomc_sim p2p       --topology grid:6x6 --k 64
//   radiomc_sim ranking   --topology path:32
//   radiomc_sim ethernet  --topology grid:4x5 --frames 2
//   radiomc_sim flood     --topology tree:63:2 [--source V]
//   radiomc_sim serve     --topology grid:6x6 --arrival poisson:0.1
//                         [--admission shed] [--certify --slots 10000000]
//   radiomc_sim topo      --topology <spec>          (print graph stats)
//
// Every command prints a compact human-readable report; exit code 0 iff
// the run completed. Seeds make everything reproducible.
//
// Telemetry (all commands):
//   --metrics-out FILE   write a JSON document with engine counters, phase
//                        spans and per-level histograms after the run
//   --trace-out FILE     stream physical events as JSONL during the run
//   --trace-agg N        add per-N-slot aggregate lines to the trace
//   --trace-max N        cap event lines at N; a capped trace ends with an
//                        explicit "truncated" record and publishes the
//                        trace.dropped_events counter
//
// Performance observability (all protocol commands):
//   --perf-out FILE      attach the in-process profiler and write a
//                        radiomc.perf/v1 report (span tree, slots/sec,
//                        peak RSS) after the run; simulation output is
//                        byte-identical with or without it
//   --snapshot-out FILE  stream periodic radiomc.snap/v1 metric snapshots
//   --snapshot-every N   ... every N engine slots (both flags required
//                        together; incompatible with --trials)
//
// Fault injection (protocol commands; topo/ethernet reject the flags):
//   --fault-crash/--fault-recover/--fault-link-down/--fault-link-up
//   --fault-jam/--fault-drop/--fault-epoch/--fault-from/--fault-until
//   compile a deterministic FaultPlan against the protocol's network;
//   --fault-stall N arms a progress watchdog (status "degraded" instead
//   of a hang). With every rate zero, output is byte-identical to a
//   fault-free build.
//
// Repetition (setup/flood/collect/p2p/broadcast):
//   --trials N           run N independent trials; trial t's seed derives
//                        from root.split(t), so results depend only on
//                        --seed, never on scheduling
//   --jobs J             threads for --trials (0 = all cores; also the
//                        RADIOMC_JOBS env var). Per-trial telemetry is
//                        merged in trial order, spans tagged trial=t.

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "graph/algorithms.h"
#include "health/monitor.h"
#include "perf/profiler.h"
#include "perf/report.h"
#include "perf/snapshot.h"
#include "graph/graph_io.h"
#include "graph/topology_spec.h"
#include "protocols/steady_state.h"
#include "queueing/analysis.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/ethernet_emulation.h"
#include "protocols/point_to_point.h"
#include "protocols/ranking.h"
#include "protocols/setup.h"
#include "protocols/tree.h"
#include "service/certify.h"
#include "service/service.h"
#include "support/parallel.h"
#include "support/parse.h"
#include "support/rng.h"
#include "support/util.h"
#include "telemetry/jsonl_sink.h"
#include "telemetry/telemetry.h"

using namespace radiomc;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool has(const std::string& key) const { return options.contains(key); }
  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t dflt) const {
    const auto it = options.find(key);
    if (it == options.end()) return dflt;
    const std::optional<std::uint64_t> v = parse_u64(it->second);
    require(v.has_value(), "--" + key + ": '" + it->second +
                               "' is not an unsigned integer");
    return *v;
  }
  double get_f64(const std::string& key, double dflt) const {
    const auto it = options.find(key);
    if (it == options.end()) return dflt;
    const std::optional<double> v = parse_f64(it->second);
    require(v.has_value(),
            "--" + key + ": '" + it->second + "' is not a number");
    return *v;
  }
};

/// Every option usage() lists. One no command reads is a typo (--sed for
/// --seed) that would otherwise run silently on defaults, so it is an
/// error for every command.
void reject_unknown_flags(const Args& a) {
  static const std::set<std::string> kFlags = {
      "admission", "alert-rules", "anon", "arrival", "attempts", "certify",
      "certify-margin", "certify-sojourn", "dot", "edges", "envelope",
      "fault-crash", "fault-drop", "fault-epoch", "fault-from", "fault-jam",
      "fault-link-down", "fault-link-up", "fault-recover", "fault-stall",
      "fault-until", "frames", "health-out", "health-window", "jobs", "k",
      "lambda", "metrics-out", "no-autosleep", "no-dedup", "no-mod3",
      "perf-out", "phases", "seed", "slots", "snapshot-every",
      "snapshot-out", "soak-out", "source", "topology", "trace-agg",
      "trace-max", "trace-out", "tree", "trials", "uniform", "warmup",
      "window"};
  for (const auto& [key, value] : a.options) {
    (void)value;
    require(kFlags.contains(key), "unknown option --" + key +
                                      " (run radiomc_sim without arguments "
                                      "for the option list)");
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    require(key.rfind("--", 0) == 0, "options look like --key [value]");
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.options[key] = argv[++i];
    } else {
      a.options[key] = "1";  // boolean flag
    }
  }
  return a;
}

/// --fault-* flags -> a validated FaultPlan. Rates outside [0, 1],
/// recovery without crashes, link-up without link-down and empty windows
/// are rejected with the FaultPlan::validate messages.
FaultPlan faults_from_args(const Args& a) {
  FaultPlan p;
  p.crash_rate = a.get_f64("fault-crash", 0.0);
  p.recover_rate = a.get_f64("fault-recover", 0.0);
  p.link_down_rate = a.get_f64("fault-link-down", 0.0);
  p.link_up_rate = a.get_f64("fault-link-up", 0.0);
  p.jam_prob = a.get_f64("fault-jam", 0.0);
  p.drop_prob = a.get_f64("fault-drop", 0.0);
  p.epoch_slots = a.get_u64("fault-epoch", p.epoch_slots);
  p.window_start = a.get_u64("fault-from", 0);
  p.window_end = a.get_u64("fault-until", kNoSlotLimit);
  p.validate();
  return p;
}

/// Commands without a fault model (topo builds no network; ethernet's
/// virtual bus predates the hook) refuse the flags instead of ignoring
/// them silently.
void reject_fault_flags(const Args& a, const char* cmd) {
  for (const auto& [key, value] : a.options) {
    (void)value;
    require(key.rfind("fault-", 0) != 0,
            "--" + key + " is not supported by the " + std::string(cmd) +
                " command: it injects no faults");
  }
}

/// One stdout line describing the active plan; empty when no fault is
/// enabled so fault-free reports stay byte-identical to the historical
/// output.
std::string fault_report_line(const FaultPlan& p);

int usage() {
  std::printf(
      "radiomc_sim <command> --topology <spec> [options]\n"
      "\n"
      "commands:\n"
      "  topo       print graph statistics   [--dot [--tree]] [--edges]\n"
      "  steady     open-system collection   [--lambda F] [--phases P]\n"
      "  serve      continuous-traffic service (open-loop soak driver)\n"
      "             [--arrival bernoulli:R|poisson:R|mmpp:R0:R1:PON:POFF]\n"
      "             [--phases P | --slots N] [--warmup P] [--uniform]\n"
      "             [--admission off|shed|defer [--envelope M]]\n"
      "             [--no-dedup] [--no-autosleep]\n"
      "             [--health-out FILE [--alert-rules SPEC] "
      "[--health-window N]]\n"
      "                                  (radiomc.health/v1 alert stream)\n"
      "             [--certify [--certify-margin F] [--certify-sojourn M]\n"
      "              [--soak-out FILE]]   (radiomc.soak/v1 verdict)\n"
      "  setup      run the full §2 setup phase      [--anon BITS] "
      "[--attempts N]\n"
      "  flood      BGI single-source broadcast      [--source V]\n"
      "  collect    k-message collection (§4)        [--k K] [--no-mod3]\n"
      "  p2p        k point-to-point messages (§5)   [--k K]\n"
      "  broadcast  pipelined k-broadcast (§6)       [--k K] [--window W]\n"
      "  ranking    the §7 ranking protocol\n"
      "  ethernet   virtual bus + backoff MAC (§1.3) [--frames F]\n"
      "\n"
      "common options: --seed S (default 1)\n"
      "                --metrics-out FILE  (JSON metrics + phase timeline)\n"
      "                --trace-out FILE    (JSONL physical-event trace)\n"
      "                --trace-agg N       (per-N-slot aggregate lines)\n"
      "                --trace-max N       (cap event lines; emits a "
      "'truncated' record)\n"
      "                --perf-out FILE     (radiomc.perf/v1 profiler "
      "report; output stays byte-identical)\n"
      "                --snapshot-out FILE (radiomc.snap/v1 JSONL metric "
      "snapshots)\n"
      "                --snapshot-every N  (snapshot cadence in slots; "
      "required with --snapshot-out)\n"
      "                --trials N          (independent repetitions; "
      "setup/flood/collect/p2p/broadcast)\n"
      "                --jobs J            (threads for --trials; 0 = all "
      "cores; env RADIOMC_JOBS)\n"
      "fault injection (protocol commands; topo/ethernet reject these):\n"
      "                --fault-crash R     (per-epoch crash prob per "
      "station)\n"
      "                --fault-recover R   (per-epoch recovery prob when "
      "crashed)\n"
      "                --fault-link-down R (per-epoch link-down prob per "
      "link)\n"
      "                --fault-link-up R   (per-epoch link-up prob when "
      "down)\n"
      "                --fault-jam P       (per-slot jam prob per clean "
      "reception)\n"
      "                --fault-drop P      (per-slot delivery drop prob)\n"
      "                --fault-epoch N     (epoch length in slots, default "
      "1024)\n"
      "                --fault-from S      (first slot faults may strike)\n"
      "                --fault-until S     (fault onset stops at this "
      "slot)\n"
      "                --fault-stall N     (watchdog: degraded after N "
      "slots w/o progress)\n"
      "topology spec: %s\n",
      gen::spec_grammar().c_str());
  return 2;
}

/// Per-command observability: one Telemetry hub shared by setup and the
/// command's main protocol run, plus an optional JSONL trace sink, an
/// optional profiler (--perf-out) and an optional snapshot stream
/// (--snapshot-out/--snapshot-every).
struct Obs {
  telemetry::Telemetry tel;
  std::unique_ptr<telemetry::JsonlTraceSink> sink;
  std::unique_ptr<perf::Profiler> prof;
  std::unique_ptr<perf::SnapshotStreamer> snap;
  std::string metrics_path;
  std::string perf_path;
  std::string perf_command;
  unsigned perf_jobs = 1;

  static Obs from_args(const Args& a) {
    Obs o;
    o.metrics_path = a.get("metrics-out", "");
    const std::string trace_path = a.get("trace-out", "");
    if (trace_path.empty()) {
      require(!a.has("trace-agg"),
              "--trace-agg requires --trace-out: aggregate lines are part "
              "of the trace stream");
      require(!a.has("trace-max"),
              "--trace-max requires --trace-out: it caps the trace stream");
    }
    if (!trace_path.empty()) {
      telemetry::JsonlOptions opt;
      opt.aggregate_every = a.get_u64("trace-agg", 0);
      opt.max_events = a.get_u64("trace-max", 0);
      o.sink =
          std::make_unique<telemetry::JsonlTraceSink>(trace_path, opt);
      require(o.sink->ok(), "cannot open --trace-out file " + trace_path);
    }
    o.perf_path = a.get("perf-out", "");
    o.perf_command = a.command;
    if (!o.perf_path.empty()) o.prof = std::make_unique<perf::Profiler>();
    // Same contract as --trace-agg/--trace-out: a cadence without a
    // destination (or vice versa) is a hard error, never a silent no-op.
    perf::SnapshotStreamer::validate_flags(a.has("snapshot-out"),
                                           a.has("snapshot-every"),
                                           a.get_u64("snapshot-every", 0));
    const std::string snap_path = a.get("snapshot-out", "");
    if (!snap_path.empty()) {
      o.snap = std::make_unique<perf::SnapshotStreamer>(
          snap_path, a.get_u64("snapshot-every", 0), &o.tel.metrics,
          o.prof.get());
      require(o.snap->ok(), "cannot open --snapshot-out file " + snap_path);
    }
    return o;
  }

  /// The hub, trace sink, profiler and snapshot stream; no fault plan —
  /// each command compiles its own from the --fault-* flags.
  Instruments instruments() {
    return {&tel, sink.get(), prof.get(), snap.get(), {}};
  }

  /// Flushes the trace and writes the metrics document; `rc` passes
  /// through so commands can end with `return obs.finish(rc);`.
  int finish(int rc) {
    if (sink) {
      sink->finish();
      tel.metrics.counter("trace.jsonl_lines").inc(sink->lines_written());
      if (sink->truncated()) {
        // Surface truncation loudly: the analysis auditor refuses to
        // certify a capped trace, so the operator should know right away.
        tel.metrics.counter("trace.dropped_events")
            .inc(sink->dropped_events());
        std::printf("  trace: TRUNCATED, %llu events dropped "
                    "(--trace-max too small for this run)\n",
                    static_cast<unsigned long long>(sink->dropped_events()));
      }
      std::printf("  trace: %llu JSONL lines\n",
                  static_cast<unsigned long long>(sink->lines_written()));
    }
    if (!metrics_path.empty()) {
      require(tel.write_json_file(metrics_path),
              "cannot write --metrics-out file " + metrics_path);
      std::printf("  metrics: %s (%zu series, %zu spans)\n",
                  metrics_path.c_str(), tel.metrics.size(),
                  tel.timeline.spans().size());
    }
    if (snap) {
      snap->finish();
      if (snap->dropped_snapshots() > 0) {
        // Same loud-truncation contract as the trace sink: the footer says
        // "clean":false, the counter survives into --metrics-out, and the
        // operator hears about it on stdout.
        tel.metrics.counter("snap.dropped_snapshots")
            .inc(snap->dropped_snapshots());
        std::printf("  snapshots: STREAM WENT BAD, %llu snapshots dropped\n",
                    static_cast<unsigned long long>(
                        snap->dropped_snapshots()));
      }
      std::printf("  snapshots: %llu\n",
                  static_cast<unsigned long long>(snap->snapshots_written()));
    }
    if (prof) {
      perf::RunInfo run;
      run.tool = "radiomc_sim";
      run.command = perf_command;
      run.jobs = perf_jobs;
      // Engine slots for the slots/sec headline: the drivers publish
      // "<proto>.slots" counters into the profiler; sum them. Read-only
      // use of perf data by the perf layer itself (perf-purity holds).
      for (const auto& [name, value] : prof->counters())
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".slots") == 0)
          run.slots += value;
      require(perf::write_perf_json_file(*prof, run, perf_path),
              "cannot write --perf-out file " + perf_path);
      std::printf("  perf: %s (%zu top-level spans)\n", perf_path.c_str(),
                  prof->root().children.size());
    }
    return rc;
  }
};

struct World {
  Graph g;
  SetupOutcome setup;
};

/// Builds the graph and runs the setup phase. `seed` stands in for --seed
/// so each --trials repetition builds its own world. The setup always
/// reports into `in`'s hub and profiler. Only when `setup_is_the_run` (the
/// `setup` command) does it take the rest of `in` too: the trace sink and
/// slot hook, so other commands' traces and snapshots follow one network
/// clock, and the fault plan, whose degraded outcome it then tolerates —
/// every other command needs the tree, so its setup runs fault-free.
World make_world(const Args& a, std::uint64_t seed, const Instruments& in,
                 bool setup_is_the_run = false) {
  Rng rng(seed);
  World w;
  w.g = gen::from_spec(a.get("topology", ""), rng);
  SetupTuning tuning;
  if (setup_is_the_run) {
    static_cast<Instruments&>(tuning) = in;
  } else {
    tuning.telemetry = in.telemetry;
    tuning.profiler = in.profiler;
  }
  tuning.random_id_bits = static_cast<std::uint32_t>(a.get_u64("anon", 0));
  // --attempts caps the verify/restart loop; attempt lengths double, so
  // under sustained faults the default budget of 12 can take ~2^12x the
  // base attempt length before reporting degraded.
  const auto max_attempts =
      static_cast<std::uint32_t>(a.get_u64("attempts", 12));
  w.setup = run_setup(w.g, rng.next(), tuning, max_attempts);
  if (!tuning.faults.any()) require(w.setup.ok, "setup failed");
  return w;
}

/// Records run context in the JSONL trace's schema header so radiomc_trace
/// can decode slots and attribute events to BFS levels offline. A no-op
/// without --trace-out.
void label_trace(const Instruments& in, const char* protocol,
                 const SlotStructure* slots,
                 const std::vector<std::uint32_t>* levels) {
  auto* sink = dynamic_cast<telemetry::JsonlTraceSink*>(in.trace);
  if (sink == nullptr) return;
  sink->set_protocol(protocol);
  if (slots != nullptr) sink->set_slot_structure(*slots);
  if (levels != nullptr) sink->set_levels(*levels);
}

template <typename... A>
std::string strf(const char* f, A... args) {
  char buf[768];
  std::snprintf(buf, sizeof buf, f, args...);
  return std::string(buf);
}

std::string fault_report_line(const FaultPlan& p) {
  if (!p.any()) return "";
  return strf(
      "  faults: crash=%g recover=%g link-down=%g link-up=%g jam=%g "
      "drop=%g epoch=%llu\n",
      p.crash_rate, p.recover_rate, p.link_down_rate, p.link_up_rate,
      p.jam_prob, p.drop_prob,
      static_cast<unsigned long long>(p.epoch_slots));
}

/// One repetition of a command: exit code plus its (buffered) report. The
/// report is printed by the caller so multi-trial stdout stays in trial
/// order regardless of the thread schedule.
struct TrialOut {
  int rc = 0;
  std::string report;
};

using CoreFn = TrialOut (*)(const Args&, std::uint64_t seed,
                            const Instruments& in);

/// Dispatch for the trial-parallel commands. Without --trials this is the
/// historical single-run path, byte for byte. With --trials N, trial t's
/// seed derives from root.split(t) (root seeded by --seed), each trial
/// records into a private Telemetry, and the hubs merge in trial order —
/// so metrics, spans and stdout depend only on the seed, never on --jobs.
int run_cmd(const Args& a, CoreFn core) {
  Obs obs = Obs::from_args(a);
  const std::uint64_t trials = a.get_u64("trials", 1);
  // Validated even when unused, so a typo never runs on defaults.
  unsigned jobs = jobs_from_env(1);
  if (a.has("jobs")) {
    const std::string text = a.get("jobs", "");
    const std::optional<unsigned> j = parse_jobs(text);
    require(j.has_value(), "--jobs: '" + text + "' is not an unsigned integer");
    jobs = *j;
  }
  if (trials <= 1) {
    const TrialOut out = core(a, a.get_u64("seed", 1), obs.instruments());
    std::fputs(out.report.c_str(), stdout);
    return obs.finish(out.rc);
  }
  require(!obs.sink,
          "--trace-out is incompatible with --trials: one physical-event "
          "trace cannot interleave independent runs (use --metrics-out)");
  require(!obs.snap,
          "--snapshot-out is incompatible with --trials: one snapshot "
          "stream cannot interleave independent slot clocks");
  obs.perf_jobs = jobs;
  Rng root(a.get_u64("seed", 1));
  std::vector<std::uint64_t> seeds;
  seeds.reserve(trials);
  for (std::uint64_t t = 0; t < trials; ++t)
    seeds.push_back(root.split(t).next());
  struct Slot {
    int rc = 0;
    std::string report;
    std::unique_ptr<telemetry::Telemetry> tel;
  };
  // The profiler is single-threaded, so per-trial cores run unprofiled and
  // the command level records one aggregate span over the whole pool run —
  // the same place per-trial telemetry merges.
  const auto outs = [&] {
    perf::PerfSpan pool_span(obs.prof.get(), "trials.run");
    return run_indexed(trials, jobs, [&](std::uint64_t t) {
      Slot s;
      s.tel = std::make_unique<telemetry::Telemetry>();
      Instruments trial;
      trial.telemetry = s.tel.get();
      const TrialOut out = core(a, seeds[t], trial);
      s.rc = out.rc;
      s.report = out.report;
      return s;
    });
  }();
  std::uint64_t failures = 0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    std::printf("[trial %llu] %s", static_cast<unsigned long long>(t),
                outs[t].report.c_str());
    if (outs[t].rc != 0) ++failures;
    obs.tel.merge(*outs[t].tel, static_cast<std::int64_t>(t));
  }
  std::printf("%llu/%llu trials ok (jobs=%u)\n",
              static_cast<unsigned long long>(trials - failures),
              static_cast<unsigned long long>(trials), jobs);
  return obs.finish(failures == 0 ? 0 : 1);
}

int cmd_topo(const Args& a) {
  reject_fault_flags(a, "topo");
  Rng rng(a.get_u64("seed", 1));
  const Graph g = gen::from_spec(a.get("topology", ""), rng);
  if (a.has("dot")) {
    if (a.has("tree")) {
      std::fputs(tree_to_dot(g, oracle_bfs_tree(g, 0)).c_str(), stdout);
    } else {
      std::fputs(to_dot(g).c_str(), stdout);
    }
    return 0;
  }
  if (a.has("edges")) {
    std::fputs(to_edge_list(g).c_str(), stdout);
    return 0;
  }
  std::printf("topology %s\n", a.get("topology", "").c_str());
  std::printf("  n        = %u\n", g.num_nodes());
  std::printf("  edges    = %zu\n", g.num_edges());
  std::printf("  Delta    = %u\n", g.max_degree());
  const std::uint32_t diam = diameter(g);  // O(n*m): compute it once
  std::printf("  diameter = %u\n", diam);
  std::printf("  decay_len= %u\n", decay_length(g.max_degree()));
  Obs obs = Obs::from_args(a);
  obs.tel.metrics.gauge("topo.n").set(g.num_nodes());
  obs.tel.metrics.gauge("topo.edges").set(static_cast<double>(g.num_edges()));
  obs.tel.metrics.gauge("topo.max_degree").set(g.max_degree());
  obs.tel.metrics.gauge("topo.diameter").set(diam);
  obs.tel.metrics.gauge("topo.decay_len").set(decay_length(g.max_degree()));
  return obs.finish(0);
}

int cmd_steady(const Args& a) {
  Obs obs = Obs::from_args(a);
  const Instruments in = obs.instruments();
  World w = make_world(a, a.get_u64("seed", 1), in);
  Rng rng(a.get_u64("seed", 1) ^ 0xB5);
  const double mu = queueing::mu_decay();
  const double lambda = a.get_f64("lambda", 0.5) * mu;  // fraction of mu
  const FaultPlan faults = faults_from_args(a);
  const auto out = run_collection_steady_state(
      w.g, w.setup.tree, lambda, a.get_u64("phases", 20000),
      a.get_u64("warmup", 2000), rng.next(),
      ArrivalPlacement::kDeepestLevel, faults, in.profiler, in.slot_hook);
  obs.tel.timeline.record(
      "steady_state", "phases", 0, out.phases,  // span unit: phases
      {{"arrivals", static_cast<std::int64_t>(out.arrivals)},
       {"delivered", static_cast<std::int64_t>(out.delivered)}});
  obs.tel.metrics.counter("steady.arrivals").inc(out.arrivals);
  obs.tel.metrics.counter("steady.delivered").inc(out.delivered);
  obs.tel.metrics.gauge("steady.mean_population").set(out.population.mean());
  obs.tel.metrics.gauge("steady.mean_sojourn_phases")
      .set(out.sojourn_phases.mean());
  std::printf("open-system collection at lambda = %.4f (%.0f%% of mu):\n",
              lambda, 100.0 * lambda / mu);
  std::printf("  arrivals/delivered  = %llu / %llu\n",
              static_cast<unsigned long long>(out.arrivals),
              static_cast<unsigned long long>(out.delivered));
  std::printf("  mean population     = %.3f (model-4 bound %.3f)\n",
              out.population.mean(),
              w.setup.tree.depth * queueing::mean_queue_length(lambda, mu));
  std::printf("  mean sojourn phases = %.3f (model-4 bound %.3f)\n",
              out.sojourn_phases.mean(),
              w.setup.tree.depth * queueing::mean_wait(lambda, mu));
  std::fputs(fault_report_line(faults).c_str(), stdout);
  return obs.finish(0);
}

TrialOut setup_core(const Args& a, std::uint64_t seed, const Instruments& in) {
  Instruments setup_in = in;
  setup_in.faults = faults_from_args(a);
  const FaultPlan& faults = setup_in.faults;
  label_trace(in, "setup", nullptr, nullptr);
  const World w = make_world(a, seed, setup_in, /*setup_is_the_run=*/true);
  TrialOut out;
  if (!w.setup.ok) {
    out.report = strf("setup on %s: %s after %u attempts (%llu slots)\n",
                      a.get("topology", "").c_str(),
                      to_string(w.setup.status), w.setup.attempts,
                      static_cast<unsigned long long>(w.setup.slots));
    out.report += fault_report_line(faults);
    out.rc = 1;
    return out;
  }
  out.report = strf("setup on %s: leader=%u depth=%u attempts=%u\n",
                    a.get("topology", "").c_str(), w.setup.leader,
                    w.setup.tree.depth, w.setup.attempts);
  out.report += strf("  schedule slots = %llu\n",
                     static_cast<unsigned long long>(w.setup.slots));
  out.report += strf("  work slots     = %llu\n",
                     static_cast<unsigned long long>(w.setup.work_slots));
  out.report += strf("  BFS tree valid = %s\n",
                     is_bfs_tree_of(w.g, w.setup.tree) ? "yes" : "NO");
  out.report += fault_report_line(faults);
  return out;
}

int cmd_setup(const Args& a) { return run_cmd(a, setup_core); }

TrialOut flood_core(const Args& a, std::uint64_t seed, const Instruments& in) {
  Rng rng(seed);
  const Graph g = gen::from_spec(a.get("topology", ""), rng);
  const NodeId source = static_cast<NodeId>(a.get_u64("source", 0));
  const FaultPlan faults = faults_from_args(a);
  const std::uint64_t phases =
      4 * (diameter(g) + 2 * ceil_log2(g.num_nodes()) + 4);
  const auto out = [&] {
    // run_bgi_broadcast predates the config-struct hook plumbing; the
    // span around the call still lands the flood in the perf report.
    perf::PerfSpan span(in.profiler, "flood.run");
    return run_bgi_broadcast(g, source, phases, rng.next(), faults);
  }();
  TrialOut r;
  r.report = strf("BGI flood from %u: informed %u/%u in %llu slots\n", source,
                  out.informed_count, g.num_nodes(),
                  static_cast<unsigned long long>(out.slots));
  r.report += fault_report_line(faults);
  if (in.telemetry != nullptr) {
    telemetry::Telemetry& tel = *in.telemetry;
    tel.timeline.record(
        "flood", "run", 0, out.slots,
        {{"informed", static_cast<std::int64_t>(out.informed_count)},
         {"n", static_cast<std::int64_t>(g.num_nodes())}});
    tel.metrics.counter("flood.informed").inc(out.informed_count);
    telemetry::Distribution& at = tel.metrics.distribution(
        "flood.informed_at", {}, telemetry::Scale::kLog2);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (out.informed[v])
        at.add(static_cast<std::int64_t>(out.informed_at[v]));
  }
  r.rc = out.informed_count == g.num_nodes() ? 0 : 1;
  return r;
}

int cmd_flood(const Args& a) { return run_cmd(a, flood_core); }

TrialOut collect_core(const Args& a, std::uint64_t seed,
                      const Instruments& in) {
  World w = make_world(a, seed, in);
  Rng rng(seed ^ 0xC0);
  const std::uint64_t k = a.get_u64("k", 16);
  std::vector<Message> init;
  for (std::uint64_t i = 0; i < k; ++i) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = static_cast<NodeId>(rng.next_below(w.g.num_nodes()));
    if (m.origin == w.setup.leader) m.origin = (m.origin + 1) % w.g.num_nodes();
    m.seq = static_cast<std::uint32_t>(i);
    init.push_back(m);
  }
  CollectionConfig cfg = CollectionConfig::for_graph(w.g);
  if (a.has("no-mod3")) cfg.slots.mod3_gating = false;
  static_cast<Instruments&>(cfg) = in;
  label_trace(in, "collection", &cfg.slots, &w.setup.tree.level);
  cfg.faults = faults_from_args(a);
  cfg.stall_slots = a.get_u64("fault-stall", 0);
  const auto out = run_collection(w.g, w.setup.tree, init, cfg, rng.next());
  TrialOut r;
  r.report =
      strf("collection of %llu messages: %s in %llu slots (%llu phases)\n",
           static_cast<unsigned long long>(k),
           out.completed ? "complete" : "INCOMPLETE",
           static_cast<unsigned long long>(out.slots),
           static_cast<unsigned long long>(out.phases));
  r.report += fault_report_line(cfg.faults);
  if (cfg.faults.any())
    r.report += strf("  status: %s\n", to_string(out.status));
  r.rc = out.completed ? 0 : 1;
  return r;
}

int cmd_collect(const Args& a) { return run_cmd(a, collect_core); }

TrialOut p2p_core(const Args& a, std::uint64_t seed, const Instruments& in) {
  World w = make_world(a, seed, in);
  Rng rng(seed ^ 0xB1);
  const std::uint64_t k = a.get_u64("k", 16);
  PreparationResult prep;
  prep.ok = true;
  prep.labels = w.setup.labels;
  prep.routing = w.setup.routing;
  std::vector<P2pRequest> reqs;
  for (std::uint64_t i = 0; i < k; ++i)
    reqs.push_back({static_cast<NodeId>(rng.next_below(w.g.num_nodes())),
                    static_cast<NodeId>(rng.next_below(w.g.num_nodes())), i});
  P2pConfig pcfg = P2pConfig::for_graph(w.g);
  static_cast<Instruments&>(pcfg) = in;
  label_trace(in, "p2p", &pcfg.slots, &w.setup.tree.level);
  pcfg.faults = faults_from_args(a);
  pcfg.stall_slots = a.get_u64("fault-stall", 0);
  const auto out = run_point_to_point(w.g, prep, reqs, pcfg, rng.next());
  TrialOut r;
  r.report = strf("p2p: %llu/%llu delivered in %llu slots\n",
                  static_cast<unsigned long long>(out.delivered),
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(out.slots));
  r.report += fault_report_line(pcfg.faults);
  if (pcfg.faults.any())
    r.report += strf("  status: %s\n", to_string(out.status));
  r.rc = out.completed ? 0 : 1;
  return r;
}

int cmd_p2p(const Args& a) { return run_cmd(a, p2p_core); }

TrialOut broadcast_core(const Args& a, std::uint64_t seed,
                        const Instruments& in) {
  World w = make_world(a, seed, in);
  Rng rng(seed ^ 0xB2);
  const std::uint64_t k = a.get_u64("k", 16);
  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(w.g);
  cfg.distribution.window =
      static_cast<std::uint32_t>(a.get_u64("window", 0));
  static_cast<Instruments&>(cfg) = in;
  cfg.faults = faults_from_args(a);
  cfg.stall_slots = a.get_u64("fault-stall", 0);
  label_trace(in, "broadcast", nullptr, &w.setup.tree.level);
  std::vector<NodeId> sources;
  for (std::uint64_t i = 0; i < k; ++i)
    sources.push_back(static_cast<NodeId>(rng.next_below(w.g.num_nodes())));
  const auto out =
      run_k_broadcast(w.g, w.setup.tree, sources, cfg, rng.next());
  TrialOut r;
  r.report = strf("k-broadcast of %llu: %s in %llu slots (%llu resends)\n",
                  static_cast<unsigned long long>(k),
                  out.completed ? "complete" : "INCOMPLETE",
                  static_cast<unsigned long long>(out.slots),
                  static_cast<unsigned long long>(out.root_resends));
  r.report += fault_report_line(cfg.faults);
  if (cfg.faults.any())
    r.report += strf("  status: %s\n", to_string(out.status));
  r.rc = out.completed ? 0 : 1;
  return r;
}

int cmd_broadcast(const Args& a) { return run_cmd(a, broadcast_core); }

TrialOut serve_core(const Args& a, std::uint64_t seed, const Instruments& in) {
  namespace svc = radiomc::service;
  const svc::AdmissionPolicy policy =
      svc::admission_policy_from_string(a.get("admission", "off"));
  svc::validate_serve_flags(
      a.has("certify"), a.has("slots") || a.has("phases"),
      a.has("slots") && a.has("phases"), a.has("soak-out"),
      a.has("certify-margin"), a.has("certify-sojourn"), a.has("envelope"),
      policy != svc::AdmissionPolicy::kOff);
  health::Monitor::validate_flags(a.has("health-out"), a.has("alert-rules"),
                                  a.has("health-window"),
                                  a.get_u64("health-window", 64));

  World w = make_world(a, seed, in);
  Rng rng(seed ^ 0xB6);

  svc::ServeConfig cfg(in);
  cfg.arrival = svc::ArrivalSpec::parse(a.get("arrival", "bernoulli:0.1"));
  cfg.admission.policy = policy;
  cfg.admission.envelope_multiple = a.get_f64("envelope", 8.0);
  // Horizon: --phases directly, or --slots converted up to whole collection
  // phases (the engine runs warmup + measured phases of slots each).
  const std::uint64_t spp =
      PhaseClock(CollectionConfig::for_graph(w.g).slots).slots_per_phase();
  cfg.phases = a.has("slots")
                   ? (a.get_u64("slots", 0) + spp - 1) / spp
                   : a.get_u64("phases", 20'000);
  cfg.warmup_phases = a.get_u64("warmup", 2'000);
  if (a.has("uniform")) cfg.placement = ArrivalPlacement::kUniform;
  cfg.dedup_guard = !a.has("no-dedup");
  cfg.autosleep = !a.has("no-autosleep");
  cfg.faults = faults_from_args(a);

  // --health-out: attach the online monitor. Its flight recorder rides the
  // same null-guarded TraceSink hook as --trace-out elsewhere, so a run
  // without the flag is byte-identical to one that predates the monitor.
  std::unique_ptr<health::Monitor> mon;
  const std::string health_path = a.get("health-out", "");
  if (!health_path.empty()) {
    health::HealthConfig hcfg;
    hcfg.window_phases = a.get_u64("health-window", 64);
    hcfg.rules = a.get("alert-rules", "default");
    hcfg.offered_rate = cfg.arrival.mean_rate();
    hcfg.depth = w.setup.tree.depth;
    hcfg.warmup_phases = cfg.warmup_phases;
    mon = std::make_unique<health::Monitor>(
        w.g.num_nodes(), w.setup.tree.level, hcfg, health_path);
    require(mon->ok(), "cannot open --health-out file " + health_path);
    cfg.health = mon.get();
  }

  const auto out = svc::run_service(w.g, w.setup.tree, cfg, rng.next());
  if (mon) mon->finish();

  const double mu = queueing::mu_decay();
  const double lambda = cfg.arrival.mean_rate();
  TrialOut r;
  r.report = strf(
      "serve on %s: %s (%.0f%% of mu), %llu+%llu phases (%llu slots)\n",
      a.get("topology", "").c_str(), cfg.arrival.describe().c_str(),
      100.0 * lambda / mu, static_cast<unsigned long long>(cfg.phases),
      static_cast<unsigned long long>(cfg.warmup_phases),
      static_cast<unsigned long long>(out.slots));
  r.report += strf("  arrivals/admitted/delivered = %llu / %llu / %llu\n",
                   static_cast<unsigned long long>(out.arrivals),
                   static_cast<unsigned long long>(out.admitted),
                   static_cast<unsigned long long>(out.delivered));
  r.report += strf(
      "  admission %s: shed=%llu deferred=%llu (envelope %.2f msgs/level)\n",
      svc::to_string(cfg.admission.policy),
      static_cast<unsigned long long>(out.shed),
      static_cast<unsigned long long>(out.deferred), out.level_envelope);
  r.report += strf(
      "  mean population / sojourn   = %.3f msgs / %.3f phases\n",
      out.population.mean(), out.sojourn_phases.mean());
  r.report += strf(
      "  peak level depth = %llu; backlog = %llu net + %llu deferred\n",
      static_cast<unsigned long long>(out.peak_level_depth),
      static_cast<unsigned long long>(out.backlog),
      static_cast<unsigned long long>(out.defer_backlog));
  r.report += fault_report_line(cfg.faults);
  if (cfg.faults.any() || out.status != RunStatus::kOk)
    r.report += strf("  status: %s\n", to_string(out.status));
  if (mon) {
    r.report += strf(
        "  health: %llu windows, %llu trips / %llu clears, %llu active "
        "(%s)\n",
        static_cast<unsigned long long>(mon->windows()),
        static_cast<unsigned long long>(mon->trips()),
        static_cast<unsigned long long>(mon->clears()),
        static_cast<unsigned long long>(mon->active()),
        health_path.c_str());
  }

  if (in.telemetry != nullptr) {
    telemetry::Telemetry& tel = *in.telemetry;
    tel.timeline.record(
        "serve", "phases", 0, cfg.warmup_phases + cfg.phases,
        {{"arrivals", static_cast<std::int64_t>(out.arrivals)},
         {"delivered", static_cast<std::int64_t>(out.delivered)},
         {"shed", static_cast<std::int64_t>(out.shed)}});
    tel.metrics.gauge("service.mean_population", {{"protocol", "serve"}})
        .set(out.population.mean());
    tel.metrics.gauge("service.mean_sojourn_phases", {{"protocol", "serve"}})
        .set(out.sojourn_phases.mean());
  }

  // The structured-outcome convention shared by every command: exit 0 = ok,
  // 1 = degraded (shed/deferred traffic, a duplicate, or a queue excursion).
  r.rc = out.status == RunStatus::kOk ? 0 : 1;
  if (!a.has("certify")) return r;
  svc::CertifyConfig ccfg;
  ccfg.throughput_margin = a.get_f64("certify-margin", 0.10);
  ccfg.sojourn_multiple = a.get_f64("certify-sojourn", 3.0);
  svc::HealthSummary hsum;
  if (mon) {
    hsum.windows = mon->windows();
    hsum.trips = mon->trips();
    hsum.clears = mon->clears();
    hsum.active = mon->active();
  }
  const svc::SoakVerdict v = svc::certify_soak(
      out, lambda, mu, w.setup.tree.depth, ccfg, mon ? &hsum : nullptr);
  r.report += strf(
      "  certify: %s (throughput %s %.4f vs floor %.4f; sojourn %s %.2f vs "
      "bound %.2f; exactly-once %s; queues %s)\n",
      v.pass ? "PASS" : "FAIL", v.throughput_ok ? "ok" : "FAIL",
      v.delivered_rate, v.throughput_floor, v.sojourn_ok ? "ok" : "FAIL",
      v.sojourn_mean, v.sojourn_bound, v.exactly_once_ok ? "ok" : "FAIL",
      v.queues_bounded ? "ok" : "FAIL");
  if (v.health_checked)
    r.report += strf("  certify health: %s (%llu alert trips)\n",
                     v.health_ok ? "ok" : "FAIL",
                     static_cast<unsigned long long>(v.health.trips));
  const std::string soak_path = a.get("soak-out", "");
  if (!soak_path.empty()) {
    require(v.write_json_file(soak_path),
            "cannot write --soak-out file " + soak_path);
    r.report += strf("  soak verdict: %s\n", soak_path.c_str());
  }
  r.rc = v.pass ? 0 : 1;
  return r;
}

int cmd_serve(const Args& a) {
  // A soak-scale physical-event trace is unbounded; the live observability
  // channel for serve is --snapshot-out. Reject rather than silently emit
  // a bottomless file (the --trace-agg hard-error convention).
  require(!a.has("trace-out"),
          "--trace-out is not supported by the serve command: a soak-scale "
          "event trace is unbounded; use --snapshot-out/--snapshot-every");
  require(!(a.has("soak-out") && a.get_u64("trials", 1) > 1),
          "--soak-out is incompatible with --trials: one verdict file "
          "cannot hold independent soaks");
  require(!(a.has("health-out") && a.get_u64("trials", 1) > 1),
          "--health-out is incompatible with --trials: one health stream "
          "cannot interleave independent phase clocks");
  return run_cmd(a, serve_core);
}

int cmd_ranking(const Args& a) {
  Obs obs = Obs::from_args(a);
  World w = make_world(a, a.get_u64("seed", 1), obs.instruments());
  Rng rng(a.get_u64("seed", 1) ^ 0xB3);
  PreparationResult prep;
  prep.ok = true;
  prep.labels = w.setup.labels;
  prep.routing = w.setup.routing;
  std::vector<std::uint64_t> ids(w.g.num_nodes());
  for (auto& id : ids) id = rng.next();
  const FaultPlan faults = faults_from_args(a);
  const auto out = run_ranking(w.g, prep, ids, rng.next(), 200'000'000,
                               &obs.tel, faults, a.get_u64("fault-stall", 0));
  std::printf("ranking of %u nodes: %s in %llu slots\n", w.g.num_nodes(),
              out.completed ? "complete" : "INCOMPLETE",
              static_cast<unsigned long long>(out.total_slots()));
  std::fputs(fault_report_line(faults).c_str(), stdout);
  if (faults.any()) std::printf("  status: %s\n", to_string(out.status));
  if (out.completed)
    std::printf("  node 0: id %#llx -> rank %u\n",
                static_cast<unsigned long long>(ids[0]), out.rank[0]);
  return obs.finish(out.completed ? 0 : 1);
}

int cmd_ethernet(const Args& a) {
  reject_fault_flags(a, "ethernet");
  Obs obs = Obs::from_args(a);
  World w = make_world(a, a.get_u64("seed", 1), obs.instruments());
  Rng rng(a.get_u64("seed", 1) ^ 0xB4);
  const std::uint32_t frames =
      static_cast<std::uint32_t>(a.get_u64("frames", 1));
  std::vector<std::uint32_t> backlog(w.g.num_nodes(), frames);
  const auto out =
      run_ethernet_backoff(w.g, w.setup.tree, backlog, rng.next());
  std::printf("virtual ethernet: %zu frames drained in %u bus rounds "
              "(%llu slots): %s\n",
              out.delivered_frames.size(), out.rounds_used,
              static_cast<unsigned long long>(out.slots),
              out.completed ? "complete" : "INCOMPLETE");
  // run_ethernet_backoff has no telemetry hooks; record the run here.
  obs.tel.timeline.record(
      "ethernet", "run", 0, out.slots,
      {{"frames", static_cast<std::int64_t>(out.delivered_frames.size())},
       {"rounds", static_cast<std::int64_t>(out.rounds_used)},
       {"completed", out.completed ? 1 : 0}});
  obs.tel.metrics.counter("ethernet.delivered_frames")
      .inc(out.delivered_frames.size());
  obs.tel.metrics.counter("ethernet.rounds_used").inc(out.rounds_used);
  return obs.finish(out.completed ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    reject_unknown_flags(a);
    // The health monitor paces on service phases, which only serve has;
    // everywhere else the flags would be silent no-ops, so hard-error.
    if (a.command != "serve")
      for (const char* f : {"health-out", "alert-rules", "health-window"})
        require(!a.has(f), std::string("--") + f +
                               " requires the serve command: the health "
                               "monitor paces on service phases");
    if (a.command == "topo") return cmd_topo(a);
    if (a.command == "setup") return cmd_setup(a);
    if (a.command == "flood") return cmd_flood(a);
    if (a.command == "collect") return cmd_collect(a);
    if (a.command == "p2p") return cmd_p2p(a);
    if (a.command == "broadcast") return cmd_broadcast(a);
    if (a.command == "ranking") return cmd_ranking(a);
    if (a.command == "ethernet") return cmd_ethernet(a);
    if (a.command == "steady") return cmd_steady(a);
    if (a.command == "serve") return cmd_serve(a);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
