// e2ebench — end-to-end benchmark of the radiomc library.
//
// Drives one named workload through the library's public drivers (gen::*,
// run_setup, run_k_broadcast, run_service + certify_soak,
// run_bgi_broadcast) and times every call from outside, so each layer gets
// its own host time without a hook in the program. A run first sets up
// several times (generates the inputs from the seed and gets the network
// ready), then repeats the protocol stage on the ready network. Every
// set-up and every stage call is one operation, and its outputs are
// checked; a failed check or a simulated result that differs from the
// first call of its kind counts the operation as failed.
//
// Usage:
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--toy]
//
//   --trace 0  bare calls only; prints the end-to-end metrics.
//   --trace 1  follows each bare call with one that attaches the
//              observers the drivers already expose (TelemetryHub,
//              perf::Profiler); prints the per-layer metrics plus the
//              tracing overhead (traced minus bare host time).
//   --toy      tiny inputs through the same code path (the self-test).
//
// The last stdout line is one JSON object with exactly the keys
// "correct", "attempted", "failed" and "metrics". The line before it
// carries the determinism digest of the workload's simulated results.
// Exit 0 when a result was printed, 2 on a usage error.
//
// The benchmark consumes the library as an external package, so library
// headers are included with angle brackets.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <graph/algorithms.h>
#include <graph/generators.h>
#include <health/monitor.h>
#include <perf/profiler.h>
#include <protocols/bgi_broadcast.h>
#include <protocols/broadcast_service.h>
#include <protocols/setup.h>
#include <protocols/tree.h>
#include <queueing/analysis.h>
#include <service/certify.h>
#include <service/service.h>
#include <support/rng.h>
#include <support/stopwatch.h>
#include <support/util.h>
#include <telemetry/telemetry.h>

namespace {

using namespace radiomc;
namespace svc = radiomc::service;

/// Input sizes of the three workloads; `toy` shrinks each to a size that
/// runs in milliseconds for the self-test.
struct Sizes {
  NodeId bcast_side = 20;
  std::uint32_t bcast_k = 256;
  NodeId serve_side = 12;
  std::uint64_t serve_phases = 200'000;
  NodeId flood_n = 10'000;

  static Sizes toy() {
    Sizes s;
    s.bcast_side = 4;
    s.bcast_k = 8;
    s.serve_side = 4;
    s.serve_phases = 20'000;
    s.flood_n = 300;
    return s;
  }
};

/// The observers a traced call attaches: only what the drivers
/// already accept through their configs.
struct Observers {
  telemetry::Telemetry tel;
  perf::Profiler prof;
};

/// The results of one set-up or one protocol-stage call.
struct Sample {
  // Host seconds, timed from outside the library calls.
  double gen_s = 0;    ///< input generation
  double ready_s = 0;  ///< run_setup, or connectivity check + diameter
  double run_s = 0;    ///< the protocol-stage call
  std::uint64_t engine_slots = 0;  ///< simulated slots of this call
  /// Simulated results: a pure function of the seed, hashed into the
  /// determinism digest. Order is the workload's insertion order.
  std::vector<std::pair<std::string, double>> sim;
  /// Per-layer values read from the observers (traced calls only).
  std::map<std::string, double> traced;
  /// Peak RSS growth over the stage call, as seen by this call.
  std::uint64_t stage_rss_growth = 0;
  std::vector<std::string> failures;

  void put(const std::string& name, double v) { sim.emplace_back(name, v); }
  double get(const std::string& name) const {
    for (const auto& [k, v] : sim)
      if (k == name) return v;
    return 0;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  double total_s() const { return gen_s + ready_s + run_s; }
};

/// A ready network: what a set-up hands to the protocol stage.
struct Ready {
  bool ok = false;  ///< false when the set-up failed; the stage cannot run
  Graph g;
  SetupOutcome setup;            ///< bcast, serve
  std::vector<NodeId> sources;   ///< bcast: the k-broadcast's sources
  std::uint64_t flood_phases = 0;  ///< flood: the phase budget
  std::uint64_t stage_seed = 0;
};

double seconds_of(const Stopwatch& w) {
  return static_cast<double>(w.elapsed_ns()) / 1e9;
}

/// Times `f()` from outside, adding the elapsed seconds to `*acc`.
template <typename F>
auto timed(double* acc, F&& f) {
  Stopwatch w;
  auto r = f();
  *acc += seconds_of(w);
  return r;
}

const perf::SpanNode* find_child(const perf::SpanNode& n,
                                 const std::string& name) {
  for (const auto& c : n.children)
    if (c->name == name) return c.get();
  return nullptr;
}

constexpr const char* kEpochs[] = {"leader_election", "bfs_verify",
                                   "dfs_graph",       "dfs_tree",
                                   "final_verify",    "completion_flood"};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Rates from the engine.* totals a driver published under
/// {"protocol": protocol}.
struct EngineRates {
  double tx_per_slot = 0;
  double deliveries_per_tx = 0;  ///< useful outcomes per attempt
  double collisions_per_slot = 0;
};
EngineRates engine_rates(telemetry::Telemetry& tel,
                         const std::string& protocol) {
  auto total = [&](const char* name) {
    return static_cast<double>(
        tel.metrics.counter(name, {{"protocol", protocol}}).value());
  };
  const double slots = total("engine.slots");
  const double tx = total("engine.transmissions");
  return {ratio(tx, slots), ratio(total("engine.deliveries"), tx),
          ratio(total("engine.collisions"), slots)};
}

/// Peak resident set of this process in bytes, from VmHWM. getrusage's
/// ru_maxrss would also count the launching process: Linux keeps it
/// across execve.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

/// Graph facts plus the §2 setup stage, shared by bcast and serve.
SetupOutcome setup_stage(const Graph& g, std::uint64_t setup_seed,
                         Observers* obs, Sample& s) {
  s.put("graph.edges", static_cast<double>(g.num_edges()));
  s.put("graph.max_degree", g.max_degree());
  SetupTuning tuning;
  if (obs != nullptr) {
    tuning.telemetry = &obs->tel;
    tuning.profiler = &obs->prof;
  }
  SetupOutcome setup =
      timed(&s.ready_s, [&] { return run_setup(g, setup_seed, tuning); });
  s.check(setup.ok, "setup did not succeed");
  s.check(setup.ok && is_bfs_tree_of(g, setup.tree),
          "setup tree is not a BFS tree of the graph");
  s.put("setup_slots", static_cast<double>(setup.slots));
  s.put("setup.work_slots", static_cast<double>(setup.work_slots));
  s.put("setup.attempts", setup.attempts);
  s.engine_slots += setup.slots;

  if (obs != nullptr) {
    std::map<std::string, double> epoch_slots;
    for (const telemetry::PhaseSpan& sp : obs->tel.timeline.spans())
      if (sp.protocol == "setup")
        epoch_slots[sp.name] += static_cast<double>(sp.length());
    const perf::SpanNode* attempt =
        find_child(obs->prof.root(), "setup.attempt");
    for (const char* e : kEpochs) {
      const std::string name(e);
      s.traced["setup.epoch." + name + "_slots"] = epoch_slots[name];
      const perf::SpanNode* span =
          attempt != nullptr ? find_child(*attempt, "setup." + name) : nullptr;
      s.traced["setup.epoch." + name + "_s"] =
          span != nullptr ? static_cast<double>(span->total_ns) / 1e9 : 0.0;
    }
    const EngineRates r = engine_rates(obs->tel, "setup");
    s.traced["setup.tx_per_slot"] = r.tx_per_slot;
    s.traced["setup.deliveries_per_tx"] = r.deliveries_per_tx;
  }
  return setup;
}

/// radio.* from the engine totals of the protocol stage.
void radio_layer(Observers& obs, const std::string& protocol, Sample& s) {
  const EngineRates r = engine_rates(obs.tel, protocol);
  s.traced["radio.tx_per_slot"] = r.tx_per_slot;
  s.traced["radio.deliveries_per_tx"] = r.deliveries_per_tx;
  s.traced["radio.collisions_per_slot"] = r.collisions_per_slot;
}

// ---------------------------------------------------------------------------
// bcast_grid20: §2 setup on grid:20x20, then a k-broadcast of k=256 from
// random sources (what `radiomc_sim broadcast` runs).

Ready ready_bcast(const Sizes& sz, std::uint64_t seed, Observers* obs,
                  Sample& s) {
  Ready r;
  Rng rng(seed);
  r.g = timed(&s.gen_s, [&] {
    return gen::grid(sz.bcast_side, sz.bcast_side);
  });
  r.setup = setup_stage(r.g, rng.next(), obs, s);
  if (!r.setup.ok) return r;
  for (std::uint32_t i = 0; i < sz.bcast_k; ++i)
    r.sources.push_back(static_cast<NodeId>(rng.next_below(r.g.num_nodes())));
  r.stage_seed = rng.next();
  r.ok = true;
  return r;
}

void stage_bcast(const Sizes& sz, const Ready& r, Observers* obs,
                 Sample& s) {
  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(r.g);
  if (obs != nullptr) {
    cfg.telemetry = &obs->tel;
    cfg.profiler = &obs->prof;
  }
  const KBroadcastOutcome out = timed(&s.run_s, [&] {
    return run_k_broadcast(r.g, r.setup.tree, r.sources, cfg, r.stage_seed);
  });
  s.check(out.completed, "k-broadcast did not complete");
  s.check(out.delivered_prefix >= sz.bcast_k,
          "k-broadcast delivered prefix is below k");
  s.engine_slots += out.slots;
  s.put("run_slots", static_cast<double>(out.slots));
  s.put("kbcast.polls_per_slot", ratio(static_cast<double>(out.engine_polls),
                                       static_cast<double>(out.slots)));
  s.put("kbcast.root_resends", static_cast<double>(out.root_resends));
  s.put("kbcast.polls", static_cast<double>(out.engine_polls));
  if (obs != nullptr) radio_layer(*obs, "distribution", s);
}

// ---------------------------------------------------------------------------
// serve_grid12: §2 setup on grid:12x12, then run_service open loop at
// poisson:0.186 (about 0.8 mu) with uniform placement and default
// admission, under the default health battery, certified by certify_soak.

Ready ready_serve(const Sizes& sz, std::uint64_t seed, Observers* obs,
                  Sample& s) {
  Ready r;
  Rng rng(seed);
  r.g = timed(&s.gen_s, [&] {
    return gen::grid(sz.serve_side, sz.serve_side);
  });
  r.setup = setup_stage(r.g, rng.next(), obs, s);
  if (!r.setup.ok) return r;
  r.stage_seed = rng.next();
  r.ok = true;
  return r;
}

void stage_serve(const Sizes& sz, const Ready& r, Observers* obs,
                 Sample& s) {
  svc::ServeConfig cfg;
  cfg.arrival = svc::ArrivalSpec::parse("poisson:0.186");
  cfg.phases = sz.serve_phases;
  // No warmup: the measured counters then cover the whole run, so
  // admitted == delivered + backlog is an exact conservation check.
  cfg.warmup_phases = 0;
  cfg.placement = ArrivalPlacement::kUniform;
  if (obs != nullptr) {
    cfg.telemetry = &obs->tel;
    cfg.profiler = &obs->prof;
  }
  health::HealthConfig hcfg;
  hcfg.offered_rate = cfg.arrival.mean_rate();
  hcfg.depth = r.setup.tree.depth;
  hcfg.warmup_phases = cfg.warmup_phases;
  std::ostringstream health_stream;
  health::Monitor monitor(r.g.num_nodes(), r.setup.tree.level, hcfg,
                          health_stream);
  cfg.health = &monitor;

  const std::uint64_t rss0 = peak_rss_bytes();
  const svc::ServeOutcome out = timed(&s.run_s, [&] {
    svc::ServeOutcome o =
        svc::run_service(r.g, r.setup.tree, cfg, r.stage_seed);
    monitor.finish();
    return o;
  });
  s.stage_rss_growth = peak_rss_bytes() - rss0;

  const double lambda = cfg.arrival.mean_rate();
  svc::HealthSummary hsum;
  hsum.windows = monitor.windows();
  hsum.trips = monitor.trips();
  hsum.clears = monitor.clears();
  hsum.active = monitor.active();
  const svc::SoakVerdict v =
      svc::certify_soak(out, lambda, queueing::mu_decay(), r.setup.tree.depth,
                        svc::CertifyConfig{}, &hsum);
  s.check(out.duplicates == 0, "serve delivered duplicates");
  s.check(out.admitted == out.delivered + out.backlog,
          "serve lost or invented messages (admitted != delivered + backlog)");
  s.check(v.throughput_ok, "certify: throughput below the floor");
  s.check(v.sojourn_ok, "certify: mean sojourn above the bound");
  s.check(v.exactly_once_ok, "certify: exactly-once violated");
  s.check(v.queues_bounded, "certify: a level queue left its envelope");
  s.check(monitor.ok(), "health stream went bad");

  s.engine_slots += out.slots;
  const double phases = static_cast<double>(out.phases);
  s.put("run_slots", static_cast<double>(out.slots));
  s.put("serve.phases", phases);
  s.put("serve.delivered", static_cast<double>(out.delivered));
  s.put("serve.polls_per_slot", ratio(static_cast<double>(out.engine_polls),
                                      static_cast<double>(out.slots)));
  s.put("serve.population_mean", out.population.mean());
  s.put("serve.peak_level_depth", static_cast<double>(out.peak_level_depth));
  s.put("sojourn_mean_phases", out.sojourn_phases.mean());
  s.put("delivered_per_phase",
        ratio(static_cast<double>(out.delivered), phases));
  s.put("health.windows", static_cast<double>(monitor.windows()));
  s.put("health.trips", static_cast<double>(monitor.trips()));
  s.put("health.stream_bytes", static_cast<double>(health_stream.str().size()));
  s.put("certify.sojourn_to_bound", ratio(v.sojourn_mean, v.sojourn_bound));

  if (obs != nullptr) {
    radio_layer(*obs, "serve", s);
    const perf::SpanNode* run = find_child(obs->prof.root(), "service.run");
    const perf::SpanNode* phase =
        run != nullptr ? find_child(*run, "service.phase") : nullptr;
    s.traced["serve.phase_max_us"] =
        phase != nullptr ? static_cast<double>(phase->max_ns) / 1e3 : 0.0;
  }
}

// ---------------------------------------------------------------------------
// flood_udg10k: a connected unit-disk graph at the connectivity radius,
// BGI flood from node 0 with the `radiomc_sim flood` phase budget. No §2
// setup: getting ready is generation, the connectivity check and a
// double-sweep diameter estimate (the exact diameter is O(n*m)).

Ready ready_flood(const Sizes& sz, std::uint64_t seed, Observers* /*obs*/,
                  Sample& s) {
  Ready r;
  Rng rng(seed);
  const double radius = gen::udg_connect_radius(sz.flood_n);
  std::uint32_t resamples = 0;
  bool connected = false;
  for (; resamples < 64 && !connected; ++resamples) {
    r.g = timed(&s.gen_s,
                [&] { return gen::unit_disk_fast(sz.flood_n, radius, rng); });
    connected = timed(&s.ready_s, [&] { return is_connected(r.g); });
  }
  s.check(connected, "no connected unit-disk graph in 64 samples");
  if (!connected) return r;
  const std::uint32_t diam =
      timed(&s.ready_s, [&] { return diameter_double_sweep(r.g); });
  r.flood_phases = 4 * (diam + 2 * ceil_log2(r.g.num_nodes()) + 4);
  s.put("graph.edges", static_cast<double>(r.g.num_edges()));
  s.put("graph.max_degree", r.g.max_degree());
  s.put("graph.resamples", resamples);
  s.put("flood.diameter_estimate", diam);
  r.stage_seed = rng.next();
  r.ok = true;
  return r;
}

void stage_flood(const Sizes& /*sz*/, const Ready& r, Observers* obs,
                 Sample& s) {
  const NodeId n = r.g.num_nodes();
  const BgiOutcome out = timed(&s.run_s, [&] {
    // run_bgi_broadcast takes no observers; a traced call still records
    // its span from here.
    perf::PerfSpan span(obs != nullptr ? &obs->prof : nullptr, "flood.run");
    return run_bgi_broadcast(r.g, 0, r.flood_phases, r.stage_seed);
  });
  s.check(out.informed_count == n, "flood did not inform every node");
  SlotTime last = 0;
  for (NodeId v = 0; v < n; ++v)
    if (out.informed[v]) last = std::max(last, out.informed_at[v]);
  s.engine_slots += out.slots;
  s.put("run_slots", static_cast<double>(last));
  s.put("flood.slots", static_cast<double>(out.slots));
  s.put("flood.polls_per_slot", ratio(static_cast<double>(out.engine_polls),
                                      static_cast<double>(out.slots)));
  s.put("flood.polls", static_cast<double>(out.engine_polls));
}

// ---------------------------------------------------------------------------
// Metric tables. Every name here must appear in BENCHMARK.json (the
// self-test checks it); a metric a workload does not exercise is printed
// as 0 and named on stderr with the reason.

struct MetricDef {
  std::string name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"slots_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"graph.gen_s", "s"},
        {"graph.edges", "count"},
        {"graph.max_degree", "count"},
        {"setup_slots", "slots"},
        {"run_slots", "slots"},
        {"sojourn_mean_phases", "phases"},
        {"delivered_per_phase", "1/phase"},
        {"setup.work_slots", "slots"},
        {"setup.attempts", "count"},
        {"setup.ns_per_slot", "ns"},
        {"setup.tx_per_slot", "1/slot"},
        {"setup.deliveries_per_tx", "ratio"},
    };
    for (const char* e : kEpochs) {
      d.push_back({std::string("setup.epoch.") + e + "_s", "s"});
      d.push_back({std::string("setup.epoch.") + e + "_slots", "slots"});
    }
    const std::vector<MetricDef> rest = {
        {"kbcast.polls_per_slot", "1/slot"},
        {"kbcast.ns_per_poll", "ns"},
        {"kbcast.ns_per_slot", "ns"},
        {"kbcast.root_resends", "count"},
        {"flood.polls_per_slot", "1/slot"},
        {"flood.ns_per_poll", "ns"},
        {"flood.ns_per_slot", "ns"},
        {"radio.tx_per_slot", "1/slot"},
        {"radio.deliveries_per_tx", "ratio"},
        {"radio.collisions_per_slot", "1/slot"},
        {"serve.ns_per_phase", "ns"},
        {"serve.polls_per_slot", "1/slot"},
        {"serve.population_mean", "msgs"},
        {"serve.peak_level_depth", "msgs"},
        {"serve.phase_max_us", "us"},
        {"serve.rss_bytes_per_delivered", "B"},
        {"health.windows", "count"},
        {"health.trips", "count"},
        {"health.stream_bytes", "B"},
        {"certify.sojourn_to_bound", "ratio"},
        {"trace.overhead_s", "s"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

struct Workload {
  const char* name;
  /// Generates the inputs from the seed and gets the network ready.
  Ready (*ready)(const Sizes&, std::uint64_t, Observers*, Sample&);
  /// Runs the protocol stage on a ready network.
  void (*stage)(const Sizes&, const Ready&, Observers*, Sample&);
  /// Per-layer metrics this workload does not exercise, with why.
  std::vector<std::pair<std::string, std::string>> absent;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"bcast_grid20",
       ready_bcast,
       stage_bcast,
       {{"flood.*", "no BGI flood stage"},
        {"serve.*, sojourn_mean_phases, delivered_per_phase",
         "no service stage"},
        {"health.*", "no health monitor (service stage only)"},
        {"certify.*", "no soak to certify"}}},
      {"serve_grid12",
       ready_serve,
       stage_serve,
       {{"kbcast.*", "no k-broadcast stage"}, {"flood.*", "no BGI flood stage"}}},
      {"flood_udg10k",
       ready_flood,
       stage_flood,
       {{"setup_slots, setup.*", "no §2 setup: the flood needs no tree"},
        {"kbcast.*", "no k-broadcast stage"},
        {"serve.*, sojourn_mean_phases, delivered_per_phase",
         "no service stage"},
        {"health.*", "no health monitor (service stage only)"},
        {"certify.*", "no soak to certify"},
        {"radio.*", "run_bgi_broadcast publishes no engine.* totals"}}},
  };
  return w;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename F>
double median_of(const std::vector<Sample>& xs, F&& f) {
  std::vector<double> v;
  for (const Sample& x : xs) v.push_back(f(x));
  return median(v);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over the names and exact bit patterns of the simulated results,
/// continuing from `h` so that digests chain.
std::uint64_t digest_of(const Sample& s, std::uint64_t h = kFnvOffset) {
  auto mix = [&h](const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [k, v] : s.sim) {
    mix(k.data(), k.size());
    mix(&v, sizeof v);
  }
  return h;
}

std::string json_number(double v) {
  char buf[64];
  if (!std::isfinite(v)) return "0";  // JSON has no NaN; ratio() avoids it
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 9e15 &&
      v > -9e15)
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  else
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--toy]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      a.toy = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Repeats `one()` until another call, at the median length so far, would
/// end past `limit` seconds of `clock`; calls it at least `min_calls`
/// times.
template <typename F>
void repeat(const Stopwatch& clock, double limit, std::size_t min_calls,
            F&& one) {
  std::vector<double> lengths;
  do {
    const Stopwatch w;
    one();
    lengths.push_back(seconds_of(w));
  } while (lengths.size() < min_calls ||
           seconds_of(clock) + median(lengths) <= limit);
}

/// Counts the calls that failed a check or whose simulated results differ
/// from the first call's, naming each on stderr.
std::uint64_t judge(const std::vector<Sample>& xs, std::uint64_t digest,
                    const char* kind) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const bool same = digest_of(xs[i]) == digest;
    for (const std::string& f : xs[i].failures)
      std::fprintf(stderr, "e2ebench: %s %zu: %s\n", kind, i, f.c_str());
    if (!same)
      std::fprintf(stderr,
                   "e2ebench: %s %zu: simulated results differ from the "
                   "first of the same seed\n",
                   kind, i);
    if (!xs[i].failures.empty() || !same) ++failed;
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) usage("unknown workload " + args.workload);
  const Sizes sizes = args.toy ? Sizes::toy() : Sizes{};

  // A run sets up at least three times and until an eighth of its time is
  // spent, then repeats the protocol stage on the last set-up's network
  // for the rest: set-up times spread little from run to run, stage times
  // much more, so the stage gets most of the run. A set-up starts from the
  // seed, a stage call from the ready network. In a trace run each bare
  // call is followed by a traced one, so both see the same machine state.
  std::vector<Sample> setups, setups_traced, stages, stages_traced;
  Ready ready;
  const Stopwatch clock;
  repeat(clock, args.seconds / 8, 3, [&] {
    setups.emplace_back();
    ready = Ready{};  // so that two networks are never alive at once
    ready = wl->ready(sizes, args.seed, nullptr, setups.back());
    if (args.trace) {
      Observers obs;
      setups_traced.emplace_back();
      wl->ready(sizes, args.seed, &obs, setups_traced.back());
    }
  });
  if (ready.ok) {
    repeat(clock, args.seconds, 1, [&] {
      stages.emplace_back();
      wl->stage(sizes, ready, nullptr, stages.back());
      if (args.trace) {
        Observers obs;
        stages_traced.emplace_back();
        wl->stage(sizes, ready, &obs, stages_traced.back());
      }
    });
  } else {
    std::fprintf(stderr, "e2ebench: set-up failed; the stage did not run\n");
  }

  // Correctness: every check of every call, plus determinism — each call's
  // simulated results must hash like the first call of its kind.
  const Sample no_stage;
  const Sample& first_setup = setups.front();
  const Sample& first_stage = stages.empty() ? no_stage : stages.front();
  const std::uint64_t setup_digest = digest_of(first_setup);
  const std::uint64_t stage_digest = digest_of(first_stage);
  std::uint64_t failed = judge(setups, setup_digest, "set-up") +
                         judge(setups_traced, setup_digest, "traced set-up") +
                         judge(stages, stage_digest, "stage") +
                         judge(stages_traced, stage_digest, "traced stage");
  if (!ready.ok) ++failed;  // the stage that could not run
  for (std::size_t i = 0; i < setups.size(); ++i)
    std::fprintf(stderr, "e2ebench: set-up %zu: gen %.4f s, ready %.4f s\n",
                 i, setups[i].gen_s, setups[i].ready_s);
  for (std::size_t i = 0; i < stages.size(); ++i)
    std::fprintf(stderr, "e2ebench: stage %zu: run %.4f s\n", i,
                 stages[i].run_s);
  const std::uint64_t attempted = setups.size() + setups_traced.size() +
                                  stages.size() + stages_traced.size() +
                                  (ready.ok ? 0 : 1);

  // Every host time is the median over the run's calls, so a call caught
  // by a host stall does not move it.
  auto setup_time = [](const Sample& x) { return x.gen_s + x.ready_s; };
  auto stage_time = [](const Sample& x) { return x.run_s; };
  const double setup_s = median_of(setups, setup_time);
  const double run_s = median_of(stages, stage_time);
  std::map<std::string, double> m;
  if (!args.trace) {
    m["setup_s"] = setup_s;
    m["run_s"] = run_s;
    m["slots_per_s"] =
        ratio(static_cast<double>(first_setup.engine_slots +
                                  first_stage.engine_slots),
              setup_s + run_s);
    m["peak_rss_mb"] =
        static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  } else {
    for (const MetricDef& d : per_layer_defs()) m[d.name] = 0;
    // Simulated results (identical in every call of a kind).
    for (const Sample* x : {&first_setup, &first_stage})
      for (const auto& [k, v] : x->sim)
        if (m.count(k) != 0) m[k] = v;
    // Host-time ratios come from the bare calls, timed from outside.
    m["graph.gen_s"] = median_of(setups, [](const Sample& x) {
      return x.gen_s;
    });
    const double setup_slots = first_setup.get("setup_slots");
    if (setup_slots > 0)
      m["setup.ns_per_slot"] =
          1e9 * median_of(setups, [](const Sample& x) { return x.ready_s; }) /
          setup_slots;
    if (first_stage.get("kbcast.polls") > 0) {
      m["kbcast.ns_per_poll"] = 1e9 * run_s / first_stage.get("kbcast.polls");
      m["kbcast.ns_per_slot"] = 1e9 * run_s / first_stage.get("run_slots");
    }
    if (first_stage.get("flood.polls") > 0) {
      m["flood.ns_per_poll"] = 1e9 * run_s / first_stage.get("flood.polls");
      m["flood.ns_per_slot"] = 1e9 * run_s / first_stage.get("flood.slots");
    }
    if (first_stage.get("serve.phases") > 0) {
      m["serve.ns_per_phase"] = 1e9 * run_s / first_stage.get("serve.phases");
      // The first stage call is the one that raises the process peak;
      // later calls reuse the freed memory.
      m["serve.rss_bytes_per_delivered"] =
          ratio(static_cast<double>(first_stage.stage_rss_growth),
                first_stage.get("serve.delivered"));
    }
    // Observer-derived values: medians over the traced calls.
    std::map<std::string, std::vector<double>> tv;
    for (const auto* xs : {&setups_traced, &stages_traced})
      for (const Sample& x : *xs)
        for (const auto& [k, v] : x.traced) tv[k].push_back(v);
    for (const auto& [k, vs] : tv) m[k] = median(vs);
    m["trace.overhead_s"] = median_of(setups_traced, setup_time) +
                            median_of(stages_traced, stage_time) - setup_s -
                            run_s;
    for (const auto& [prefix, why] : wl->absent)
      std::fprintf(stderr, "e2ebench: %s absent on %s (%s); printed as 0\n",
                   prefix.c_str(), wl->name, why.c_str());
  }

  std::printf("e2ebench: workload=%s seed=%llu set-ups=%zu stages=%zu "
              "digest=%016llx\n",
              wl->name, static_cast<unsigned long long>(args.seed),
              setups.size() + setups_traced.size(),
              stages.size() + stages_traced.size(),
              static_cast<unsigned long long>(
                  digest_of(first_stage, setup_digest)));
  const auto& defs = args.trace ? per_layer_defs() : end_to_end_defs();
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + defs[i].name + "\": {\"value\": " +
            json_number(m[defs[i].name]) + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
