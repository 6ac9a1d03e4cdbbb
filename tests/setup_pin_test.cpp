// Exact-outcome pins for the §2 setup phase. The setup station sleeps
// between the slots where it has work (timed wakes at its next epoch
// boundary and its next election / BFS phase start, wakes on receptions),
// and each completion-flood station sleeps for good once its k Decay
// phases are spent, which is only sound if every skipped poll was a pure
// no-op. These rows pin what an always-polled setup (autosleep off for
// every station) produces with the flood's phase quota: the JSONL trace
// bytes (FNV-1a), every NetMetrics counter, and the outcome's slots,
// work_slots, attempts, tree and labels. A skipped poll that mattered (a
// missed boundary action, a Decay that starts a phase late, an RNG draw
// that moves) changes one of them. The quota itself moves only the trace
// and the transmission counters: slots, work_slots, attempts, tree and
// labels equal those of a flood without a quota.
//
// The poll count is the one thing allowed to move. The legacy engine
// polled exactly n stations in every slot, so `engine_polls <= n * slots
// / 10` on the grids needs no A/B switch to prove the sleep is real.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/topology_spec.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/setup.h"
#include "support/rng.h"
#include "support/util.h"
#include "telemetry/jsonl_sink.h"
#include "telemetry/telemetry.h"

namespace radiomc {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string kv(const char* key, std::uint64_t v) {
  return std::string(key) + "=" + std::to_string(v) + " ";
}

struct Pinned {
  std::string line;
  SetupOutcome out;
  std::uint64_t crashes = 0;
};

/// Runs one setup with a trace sink and a telemetry hub and renders every
/// pinned quantity as one `key=value` line.
Pinned run_pinned(const Graph& g, std::uint64_t seed, SetupTuning tuning,
                  std::uint32_t max_attempts = 12) {
  std::ostringstream trace_out;
  telemetry::JsonlTraceSink trace(trace_out);
  telemetry::Telemetry tel;
  tuning.trace = &trace;
  tuning.telemetry = &tel;
  Pinned p;
  p.out = run_setup(g, seed, tuning, max_attempts);
  trace.finish();

  std::uint64_t tree = kFnvOffset;
  for (NodeId v = 0; v < p.out.tree.num_nodes(); ++v) {
    tree = fnv(tree, p.out.tree.parent[v]);
    tree = fnv(tree, p.out.tree.level[v]);
  }
  std::uint64_t labels = kFnvOffset;
  for (std::size_t v = 0; v < p.out.labels.number.size(); ++v) {
    labels = fnv(labels, p.out.labels.number[v]);
    labels = fnv(labels, p.out.labels.max_desc[v]);
  }

  telemetry::MetricsRegistry& reg = tel.metrics;
  const telemetry::Labels l = {{"protocol", "setup"}};
  const auto engine = [&](const char* name) {
    return reg.counter(name, l).value();
  };
  const auto event = [&](const char* kind) {
    return reg
        .counter("faults.events", {{"kind", kind}, {"protocol", "setup"}})
        .value();
  };
  p.crashes = event("crash");
  p.line = kv("ok", std::uint64_t{p.out.ok}) + kv("slots", p.out.slots) +
           kv("work_slots", p.out.work_slots) +
           kv("attempts", p.out.attempts) + kv("leader", p.out.leader) +
           kv("tree", tree) + kv("labels", labels) +
           kv("trace", fnv(trace_out.str())) +
           kv("trace_bytes", trace_out.str().size()) +
           kv("tx", engine("engine.transmissions")) +
           kv("deliveries", engine("engine.deliveries")) +
           kv("collisions", engine("engine.collisions")) +
           kv("capture", engine("engine.capture_deliveries")) +
           kv("jams", engine("engine.fault_jams")) +
           kv("drops", engine("engine.fault_drops")) +
           kv("link_blocked", engine("engine.fault_link_blocked")) +
           kv("crashed_slots", engine("engine.fault_crashed_slots")) +
           kv("crashes", p.crashes) + kv("recoveries", event("recover"));
  return p;
}

/// A crash/recover plan whose only onset is the fault epoch that contains
/// `boundary` strictly inside it: every node it crashes is down across
/// that setup epoch boundary and misses the boundary slot's action.
FaultPlan straddling(SlotTime boundary) {
  FaultPlan plan;
  plan.crash_rate = 0.35;
  plan.recover_rate = 0.5;
  plan.epoch_slots = 64;
  plan.window_start = (boundary - 1) / plan.epoch_slots * plan.epoch_slots;
  plan.window_end = plan.window_start + 1;
  return plan;
}

void expect_sleeps(const Graph& g, const SetupOutcome& out) {
  EXPECT_GT(out.engine_polls, 0u);
  EXPECT_LE(out.engine_polls,
            static_cast<std::uint64_t>(g.num_nodes()) * out.slots / 10)
      << "setup still polls most stations in most slots";
}

TEST(SetupPin, FaultFreeTopologiesReproduceTheAlwaysPolledRun) {
  Rng udg_rng(0x0D6);
  const Graph udg =
      gen::unit_disk_connected(48, gen::udg_connect_radius(48), udg_rng);
  struct Row {
    const char* name;
    Graph g;
    std::uint64_t seed;
    bool grid;
    const char* expected;
  };
  const std::vector<Row> rows = {
      {"grid8x8", gen::grid(8, 8), 101, true,
       "ok=1 slots=53828 work_slots=28842 attempts=1 "
       "leader=63 tree=14998697575806738396 "
       "labels=644499709897485453 trace=14627286949124912314 "
       "trace_bytes=2235456 tx=10083 deliveries=13519 "
       "collisions=4575 capture=0 jams=0 drops=0 "
       "link_blocked=0 crashed_slots=0 crashes=0 "
       "recoveries=0 "},
      {"path32", gen::path(32), 102, false,
       "ok=1 slots=14356 work_slots=7518 attempts=1 "
       "leader=31 tree=2499285894137377217 "
       "labels=17094828029797293861 "
       "trace=16857597560028443917 trace_bytes=950854 "
       "tx=4865 deliveries=6218 collisions=208 capture=0 "
       "jams=0 drops=0 link_blocked=0 crashed_slots=0 "
       "crashes=0 recoveries=0 "},
      {"star16", gen::star(16), 103, false,
       "ok=1 slots=95368 work_slots=64124 attempts=2 "
       "leader=15 tree=5575996250233545767 "
       "labels=1799796019094015108 "
       "trace=3286550203153537525 trace_bytes=701046 "
       "tx=3831 deliveries=4265 collisions=541 capture=0 "
       "jams=0 drops=0 link_blocked=0 crashed_slots=0 "
       "crashes=0 recoveries=0 "},
      {"udg48", udg, 104, false,
       "ok=1 slots=102756 work_slots=54222 attempts=1 "
       "leader=47 tree=14801864070300267147 "
       "labels=144299696819929356 "
       "trace=5914232794141497754 trace_bytes=3858130 "
       "tx=9257 deliveries=22351 collisions=22099 "
       "capture=0 jams=0 drops=0 link_blocked=0 "
       "crashed_slots=0 crashes=0 recoveries=0 "},
  };
  for (const Row& row : rows) {
    const Pinned p = run_pinned(row.g, row.seed, SetupTuning{});
    EXPECT_TRUE(p.out.ok) << row.name;
    EXPECT_EQ(p.line, row.expected) << row.name;
    if (row.grid) expect_sleeps(row.g, p.out);
  }
}

TEST(SetupPin, RandomIdCollisionForcesASecondAttempt) {
  // Four-bit campaign values on 16 nodes: the maximum draw collides, the
  // verification epochs catch the extra self-believed leaders, and the
  // next attempt redraws (an RNG draw at the attempt boundary).
  const Graph g = gen::grid(4, 4);
  SetupTuning tuning;
  tuning.random_id_bits = 4;
  const Pinned p = run_pinned(g, 6, tuning);
  EXPECT_TRUE(p.out.ok);
  EXPECT_EQ(p.out.attempts, 2u);
  EXPECT_EQ(p.line,
            "ok=1 slots=47752 work_slots=32190 attempts=2 "
            "leader=10 tree=5028565776302851396 "
            "labels=5958096268306516265 "
            "trace=5514379121946975307 trace_bytes=594675 "
            "tx=2858 deliveries=3575 collisions=1281 capture=0 "
            "jams=0 drops=0 link_blocked=0 crashed_slots=0 "
            "crashes=0 recoveries=0 ");
  expect_sleeps(g, p.out);
}

TEST(SetupPin, CrashesAcrossEpochBoundariesReproduceTheAlwaysPolledRun) {
  // One row per kind of boundary a crashed station can sleep through: the
  // A/B boundary (become_root runs on that exact slot), and the end of a
  // first attempt that a random-id collision makes fail, so the stations
  // down across it must roll into attempt 2 on recovery.
  const Graph g = gen::grid(4, 4);
  const SetupSchedule s0 =
      setup_schedule(g.num_nodes(), decay_length(g.max_degree()), {}, 0);
  struct Row {
    const char* name;
    SlotTime boundary;
    std::uint32_t random_id_bits;
    std::uint64_t seed;
    std::uint32_t attempts;
    const char* expected;
  };
  const std::vector<Row> rows = {
      {"a_to_b", s0.le, 0, 21, 1,
       "ok=1 slots=15940 work_slots=8138 attempts=1 "
       "leader=15 tree=1429498158202677320 "
       "labels=2757955164108171755 "
       "trace=4240857001530079882 trace_bytes=287607 "
       "tx=1460 deliveries=1699 collisions=542 capture=0 "
       "jams=0 drops=0 link_blocked=0 crashed_slots=896 "
       "crashes=8 recoveries=8 "},
      {"attempt_end", s0.attempt_length(), 4, 13, 2,
       "ok=1 slots=47752 work_slots=32100 attempts=2 "
       "leader=13 tree=13195688544406439295 "
       "labels=16789194578795308321 "
       "trace=3975254698908962800 trace_bytes=576689 "
       "tx=2661 deliveries=3652 collisions=1039 capture=0 "
       "jams=0 drops=0 link_blocked=0 crashed_slots=1216 "
       "crashes=9 recoveries=9 "},
  };
  for (const Row& row : rows) {
    SetupTuning tuning;
    tuning.random_id_bits = row.random_id_bits;
    tuning.faults = straddling(row.boundary);
    const Pinned p = run_pinned(g, row.seed, tuning);
    EXPECT_TRUE(p.out.ok) << row.name;
    EXPECT_EQ(p.out.attempts, row.attempts) << row.name;
    EXPECT_GT(p.crashes, 0u) << row.name << ": the plan never bit";
    EXPECT_EQ(p.line, row.expected) << row.name;
    expect_sleeps(g, p.out);
  }
}

TEST(SetupPin, FamilySweepKeepsAttemptsAndSlotsUnderTheFloodQuota) {
  // The flood quota may only remove transmissions from epoch G. Setup's
  // slots and attempts, pinned here from the unbounded flood over seven
  // families and three seeds, must not move, and the standalone flood
  // must still inform every node within the `radiomc_sim flood` budget.
  struct Row {
    const char* spec;
    std::uint64_t seed;
    std::uint32_t attempts;
    SlotTime slots;
  };
  const std::vector<Row> rows = {
      {"path:24", 1, 1, 11188},         {"path:24", 2, 1, 11188},
      {"path:24", 3, 1, 11188},         {"star:16", 1, 1, 31812},
      {"star:16", 2, 1, 31812},         {"star:16", 3, 1, 31812},
      {"udg:32", 1, 1, 71252},          {"udg:32", 2, 1, 71252},
      {"udg:32", 3, 1, 71252},          {"gnp:28:0.2", 1, 1, 50740},
      {"gnp:28:0.2", 2, 1, 38084},      {"gnp:28:0.2", 3, 1, 38084},
      {"caterpillar:8:2", 1, 1, 22276}, {"caterpillar:8:2", 2, 1, 22276},
      {"caterpillar:8:2", 3, 1, 22276}, {"barbell:6:4", 1, 1, 23876},
      {"barbell:6:4", 2, 1, 23876},     {"barbell:6:4", 3, 1, 23876},
      {"torus:5x6", 1, 1, 27004},       {"torus:5x6", 2, 1, 27004},
      {"torus:5x6", 3, 1, 27004},
  };
  for (const Row& row : rows) {
    Rng rng(row.seed);
    const Graph g = gen::from_spec(row.spec, rng);
    const NodeId n = g.num_nodes();
    const SetupOutcome out = run_setup(g, rng.next());
    EXPECT_TRUE(out.ok) << row.spec << " seed " << row.seed;
    EXPECT_TRUE(is_bfs_tree_of(g, out.tree))
        << row.spec << " seed " << row.seed;
    EXPECT_EQ(out.attempts, row.attempts) << row.spec << " seed " << row.seed;
    EXPECT_EQ(out.slots, row.slots) << row.spec << " seed " << row.seed;
    const std::uint64_t phases = 4 * (diameter(g) + 2 * ceil_log2(n) + 4);
    const BgiOutcome flood = run_bgi_broadcast(g, 0, phases, rng.next());
    EXPECT_EQ(flood.informed_count, n) << row.spec << " seed " << row.seed;
  }
}

}  // namespace
}  // namespace radiomc
