// Exact-outcome pins for faulted driver runs. Every driver draws its fault
// seed from its master stream at one fixed position (after the station
// splits, and after any arrival/placement splits), and `Rng::split`
// advances the parent — so a fault draw that moves by one split silently
// changes every faulted result while every property test still passes.
// These rows pin slots, deliveries and the engine's fault counters of one
// small faulted run per driver, so such a move fails loudly.
//
// Each row renders what its driver exposes as one `key=value` line:
// drivers that publish through a TelemetryHub are read back from the
// registry (engine.* and faults.events series, labeled by protocol); the
// flood and steady-state drivers expose no NetMetrics, so their outcome
// fields (per-node informed slots, arrival/sojourn statistics) stand in.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/dfs_numbering.h"
#include "protocols/ethernet_emulation.h"
#include "protocols/point_to_point.h"
#include "protocols/ranking.h"
#include "protocols/setup.h"
#include "protocols/steady_state.h"
#include "protocols/tree.h"
#include "service/service.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace radiomc {
namespace {

/// Crash with recovery, jamming and drops on a short epoch, so a small
/// run sees several transitions; onset stops at slot 2048 so every driver,
/// the virtual bus included, heals and terminates.
FaultPlan pin_plan() {
  FaultPlan plan;
  plan.crash_rate = 0.03;
  plan.recover_rate = 0.5;
  plan.jam_prob = 0.05;
  plan.drop_prob = 0.05;
  plan.epoch_slots = 128;
  plan.window_end = 2048;
  return plan;
}

std::string kv(const char* key, std::uint64_t v) {
  return std::string(key) + "=" + std::to_string(v) + " ";
}

std::string kv(const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g ", key, v);
  return buf;
}

/// The engine and fault series one driver published under `protocol`
/// (a series the run never created reads as 0).
std::string engine_line(telemetry::Telemetry& tel,
                        const std::string& protocol) {
  telemetry::MetricsRegistry& reg = tel.metrics;
  const telemetry::Labels l = {{"protocol", protocol}};
  const auto event = [&](const char* kind) {
    return reg
        .counter("faults.events", {{"kind", kind}, {"protocol", protocol}})
        .value();
  };
  return kv("engine.slots", reg.counter("engine.slots", l).value()) +
         kv("deliveries", reg.counter("engine.deliveries", l).value()) +
         kv("jams", reg.counter("engine.fault_jams", l).value()) +
         kv("drops", reg.counter("engine.fault_drops", l).value()) +
         kv("link_blocked",
            reg.counter("engine.fault_link_blocked", l).value()) +
         kv("crashed_slots",
            reg.counter("engine.fault_crashed_slots", l).value()) +
         kv("crashes", event("crash")) + kv("recoveries", event("recover"));
}

std::string net_line(const NetMetrics& m) {
  return kv("engine.slots", m.slots) + kv("deliveries", m.deliveries) +
         kv("jams", m.fault_jams) + kv("drops", m.fault_drops) +
         kv("link_blocked", m.fault_link_blocked) +
         kv("crashed_slots", m.fault_crashed_slots);
}

std::vector<Message> one_message_each(const Graph& g, NodeId except) {
  std::vector<Message> init;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == except) continue;
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    init.push_back(m);
  }
  return init;
}

std::string pin_setup() {
  const Graph g = gen::grid(3, 3);
  telemetry::Telemetry tel;
  SetupTuning tuning;
  tuning.telemetry = &tel;
  tuning.faults = pin_plan();
  const SetupOutcome out = run_setup(g, 11, tuning, 6);
  return kv("ok", std::uint64_t{out.ok}) + kv("slots", out.slots) +
         kv("attempts", std::uint64_t{out.attempts}) +
         engine_line(tel, "setup");
}

std::string pin_collection() {
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  telemetry::Telemetry tel;
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  cfg.telemetry = &tel;
  cfg.faults = pin_plan();
  cfg.stall_slots = 50'000;
  const auto out = run_collection(g, tree, one_message_each(g, 0), cfg, 12);
  return kv("slots", out.slots) +
         kv("delivered", std::uint64_t{out.deliveries.size()}) +
         engine_line(tel, "collection");
}

std::string pin_p2p() {
  const Graph g = gen::grid(4, 4);
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  std::vector<P2pRequest> reqs;
  Rng rng(13);
  for (std::uint64_t i = 0; i < 10; ++i)
    reqs.push_back({static_cast<NodeId>(rng.next_below(g.num_nodes())),
                    static_cast<NodeId>(rng.next_below(g.num_nodes())), i});
  telemetry::Telemetry tel;
  P2pConfig cfg = P2pConfig::for_graph(g);
  cfg.telemetry = &tel;
  cfg.faults = pin_plan();
  cfg.stall_slots = 50'000;
  const auto out = run_point_to_point(g, prep, reqs, cfg, 14);
  return kv("slots", out.slots) + kv("delivered", out.delivered) +
         engine_line(tel, "point_to_point");
}

std::string pin_k_broadcast() {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  telemetry::Telemetry tel;
  BroadcastServiceConfig cfg = BroadcastServiceConfig::for_graph(g);
  cfg.telemetry = &tel;
  cfg.faults = pin_plan();
  cfg.stall_slots = 50'000;
  const auto out = run_k_broadcast(g, tree, {3, 7, 15, 9}, cfg, 15);
  return kv("slots", out.slots) +
         kv("prefix", std::uint64_t{out.delivered_prefix}) +
         engine_line(tel, "distribution");
}

std::string pin_ranking() {
  const Graph g = gen::grid(4, 4);
  const PreparationResult prep = run_preparation(g, oracle_bfs_tree(g, 0));
  std::vector<std::uint64_t> ids;
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids.push_back(1000 + 37 * v);
  telemetry::Telemetry tel;
  const auto out = run_ranking(g, prep, ids, 26, 2'000'000, &tel, pin_plan(),
                               5'000);
  return kv("collect_slots", out.collect_slots) +
         kv("deliver_slots", out.deliver_slots) +
         kv("completed", std::uint64_t{out.completed}) +
         engine_line(tel, "collection") +
         engine_line(tel, "ranking_deliver");
}

std::string pin_flood() {
  const Graph g = gen::grid(5, 5);
  const auto out = run_bgi_broadcast(g, 0, 40, 17, pin_plan());
  std::uint64_t at_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (out.informed[v]) at_sum += out.informed_at[v];
  return kv("slots", out.slots) +
         kv("informed", std::uint64_t{out.informed_count}) +
         kv("informed_at_sum", at_sum);
}

std::string pin_steady() {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const auto out = run_collection_steady_state(
      g, tree, 0.1, 600, 0, 18, ArrivalPlacement::kUniform, pin_plan());
  return kv("arrivals", out.arrivals) + kv("delivered", out.delivered) +
         kv("population", out.population.mean()) +
         kv("sojourn", out.sojourn_phases.mean());
}

std::string pin_serve() {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  telemetry::Telemetry tel;
  service::ServeConfig cfg;
  cfg.arrival = service::ArrivalSpec::parse("bernoulli:0.1");
  cfg.phases = 500;
  cfg.warmup_phases = 50;
  cfg.placement = ArrivalPlacement::kUniform;
  cfg.faults = pin_plan();
  cfg.telemetry = &tel;
  const auto out = service::run_service(g, tree, cfg, 19);
  return kv("slots", out.slots) + kv("arrivals", out.arrivals) +
         kv("delivered", out.delivered) + kv("duplicates", out.duplicates) +
         engine_line(tel, "serve");
}

std::string pin_ethernet() {
  const Graph g = gen::grid(3, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const std::vector<std::uint32_t> backlog(g.num_nodes(), 1);
  const auto out =
      run_ethernet_backoff(g, tree, backlog, 21, 4096, pin_plan());
  return kv("slots", out.slots) +
         kv("rounds", std::uint64_t{out.rounds_used}) +
         kv("frames", std::uint64_t{out.delivered_frames.size()}) +
         net_line(out.net);
}

struct PinRow {
  const char* driver;
  std::function<std::string()> run;
  const char* expected;
};

TEST(FaultPin, EveryDriverReproducesItsFaultedRunExactly) {
  const std::vector<PinRow> rows = {
      {"setup", pin_setup,
       "ok=1 slots=31232 attempts=2 engine.slots=31232 "
       "deliveries=1943 jams=34 drops=34 link_blocked=0 "
       "crashed_slots=1664 crashes=6 recoveries=6 "},
      {"collection", pin_collection,
       "slots=483 delivered=24 engine.slots=483 deliveries=669 "
       "jams=30 drops=27 link_blocked=0 crashed_slots=454 crashes=2 "
       "recoveries=0 "},
      {"p2p", pin_p2p,
       "slots=265 delivered=10 engine.slots=265 deliveries=344 "
       "jams=14 drops=17 link_blocked=0 crashed_slots=146 crashes=3 "
       "recoveries=1 "},
      {"k_broadcast", pin_k_broadcast,
       "slots=1074 prefix=4 engine.slots=1074 deliveries=1454 jams=75 "
       "drops=75 link_blocked=0 crashed_slots=996 crashes=5 "
       "recoveries=3 "},
      {"ranking", pin_ranking,
       "collect_slots=315 deliver_slots=5655 completed=0 "
       "engine.slots=315 deliveries=301 jams=13 drops=19 "
       "link_blocked=0 crashed_slots=0 crashes=0 recoveries=0 "
       "engine.slots=5655 deliveries=324 jams=14 drops=11 "
       "link_blocked=0 crashed_slots=1920 crashes=7 recoveries=7 "},
      {"flood", pin_flood,
       "slots=160 informed=24 informed_at_sum=92 "},
      {"steady", pin_steady,
       "arrivals=65 delivered=65 population=0.021666666666666643 "
       "sojourn=1.2 "},
      {"serve", pin_serve,
       "slots=13200 arrivals=58 delivered=58 duplicates=0 "
       "engine.slots=13200 deliveries=1340 jams=10 drops=12 "
       "link_blocked=0 crashed_slots=2304 crashes=9 recoveries=9 "},
      {"ethernet", pin_ethernet,
       "slots=17861 rounds=36 frames=12 engine.slots=17861 "
       "deliveries=52081 jams=215 drops=212 link_blocked=0 "
       "crashed_slots=512 "},
  };
  for (const PinRow& row : rows)
    EXPECT_EQ(row.run(), row.expected) << "driver " << row.driver;
}

}  // namespace
}  // namespace radiomc
