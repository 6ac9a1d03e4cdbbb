// Unit tests for the setup building blocks in isolation: the BGI flood,
// leader election by max-flooding, and the staged BFS construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "protocols/bfs_build.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/leader_election.h"
#include "radio/network.h"
#include "support/rng.h"
#include "support/util.h"

namespace radiomc {
namespace {

class FloodSweep : public ::testing::TestWithParam<int> {};

TEST_P(FloodSweep, InformsEveryoneWithGenerousBudget) {
  Rng rng(100 + GetParam());
  std::vector<Graph> graphs;
  graphs.push_back(gen::path(24));
  graphs.push_back(gen::grid(5, 6));
  graphs.push_back(gen::gnp_connected(30, 0.2, rng));
  graphs.push_back(gen::star(16));
  for (const Graph& g : graphs) {
    const std::uint32_t d = diameter(g);
    const std::uint64_t phases = 4 * (d + 2 * ceil_log2(g.num_nodes()) + 4);
    const auto out = run_bgi_broadcast(
        g, static_cast<NodeId>(rng.next_below(g.num_nodes())), phases,
        rng.next());
    EXPECT_EQ(out.informed_count, g.num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloodSweep, ::testing::Range(0, 5));

TEST(Flood, SourceIsInformedAtZero) {
  const Graph g = gen::path(5);
  const auto out = run_bgi_broadcast(g, 2, 4, 9);
  EXPECT_TRUE(out.informed[2]);
  EXPECT_EQ(out.informed_at[2], 0u);
}

TEST(Flood, InformedTimesRespectDistance) {
  // First-reception times are nondecreasing in hop distance on a path
  // (the flood can only move one hop per reception).
  const Graph g = gen::path(12);
  const auto out = run_bgi_broadcast(g, 0, 200, 10);
  ASSERT_EQ(out.informed_count, 12u);
  for (NodeId v = 2; v < 12; ++v)
    EXPECT_GE(out.informed_at[v], out.informed_at[v - 1]);
}

TEST(Flood, ZeroPhasesInformsOnlySource) {
  const Graph g = gen::path(4);
  const auto out = run_bgi_broadcast(g, 0, 0, 11);
  EXPECT_EQ(out.informed_count, 1u);
}

TEST(Flood, QuotaCountsWholePhasesOnly) {
  // A source seeded on a phase boundary runs a Decay in phases 0..k-1 and
  // is silent from then on; a station informed in mid-phase runs the rest
  // of that phase as an extra and then k whole phases. Decay always
  // transmits in its first slot, so every phase with a Decay shows up.
  constexpr std::uint32_t kLen = 4;
  constexpr std::uint32_t kQuota = 3;
  const auto phases_sent = [&](FloodStation& st, SlotTime from) {
    std::vector<std::uint64_t> phases;
    for (SlotTime t = from; t < (kQuota + 4) * kLen; ++t) {
      if (st.poll(t) && (phases.empty() || phases.back() != t / kLen))
        phases.push_back(t / kLen);
      st.tick(t);
    }
    return phases;
  };
  Message m;
  m.kind = MsgKind::kBcastData;
  FloodStation source(kLen, kQuota, Rng(1));
  source.seed(m);
  EXPECT_EQ(phases_sent(source, 0), (std::vector<std::uint64_t>{0, 1, 2}));

  FloodStation late(kLen, kQuota, Rng(2));
  late.deliver(kLen + 1, m);  // informed in slot 1 of phase 1
  EXPECT_EQ(phases_sent(late, kLen + 2),
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(Flood, QuotaBoundsTheWorkNotTheBudget) {
  // Every informed station stops after its k phases, so once all have
  // stopped a four times longer budget polls no station more often, and
  // the polls are bounded by n*(k+2) phases of work. A flood that never
  // stops fails both checks.
  const Graph g = gen::grid(6, 6);
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t dl = decay_length(g.max_degree());
  const std::uint64_t k = bgi_phase_quota(g.num_nodes());
  const std::uint64_t budget = 2 * (diameter(g) + k + 2);
  const auto a = run_bgi_broadcast(g, 0, budget, 21);
  const auto b = run_bgi_broadcast(g, 0, 4 * budget, 21);
  ASSERT_EQ(a.informed_count, n);
  SlotTime last = 0;
  for (const SlotTime at : a.informed_at) last = std::max(last, at);
  // The budget outlasts the last station's partial phase and its k.
  ASSERT_LE(last / dl + k + 2, budget);
  EXPECT_EQ(a.informed_at, b.informed_at);
  EXPECT_EQ(a.engine_polls, b.engine_polls);
  EXPECT_LE(a.engine_polls, n * (k + 2) * dl);
}

TEST(Flood, DeadDecaySleepsToThePhaseStart) {
  // A Decay usually dies after about 2 sends, and a station whose Decay
  // has died sleeps until its next phase starts, so on a dense graph an
  // informed station is polled about 3 times per phase, not decay_len
  // times. A station that stays scheduled through every slot of its k
  // phases costs k*decay_len >= 12k polls and fails the bound.
  Rng rng(0xDEAD);
  const Graph g = gen::gnp_connected(200, 0.2, rng);
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t k = bgi_phase_quota(g.num_nodes());
  ASSERT_GE(decay_length(g.max_degree()), 12u);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto out = run_bgi_broadcast(g, 0, 2 * (diameter(g) + k + 2), seed);
    ASSERT_EQ(out.informed_count, n);
    EXPECT_LE(out.engine_polls, n * (k + 2) * 4) << "seed " << seed;
  }
}

/// A flood station whose slot 0 is engine slot `base`, as in setup's
/// epoch G: idle before it, then the flood in flood-local time.
class DelayedFlood final : public Station {
 public:
  DelayedFlood(FloodStation& flood, SlotTime base, bool source)
      : flood_(&flood), base_(base), source_(source) {}
  void on_attach(Waker& w) override {
    flood_->on_attach(w);
    if (source_) w.wake_at(base_);
  }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (t < base_) return;
    if (t == base_ && source_) {
      Message m;
      m.kind = MsgKind::kBcastData;
      m.dest = kAllNodes;
      flood_->seed(m);
    }
    tx[0] = flood_->poll(t - base_);
  }
  void on_receive(SlotTime t, ChannelId, const Message& m) override {
    flood_->deliver(t - base_, m);
  }
  void on_slot_end(SlotTime t) override {
    if (t >= base_) flood_->tick(t - base_);
  }

 private:
  FloodStation* flood_;
  SlotTime base_;
  bool source_;
};

TEST(Flood, PhaseTimersCountFromTheSlotBase) {
  // Started `base` engine slots late, a flood whose reset names the base
  // informs the same stations at the same flood-local slots and is polled
  // as rarely as the standalone flood (the late run adds the one slot-0
  // poll of its source). Timers armed in flood-local time would fall due
  // in the past and degrade to a wake in every slot of the quota.
  Rng rng(0xBA5E);
  const Graph g = gen::gnp_connected(120, 0.3, rng);
  const NodeId n = g.num_nodes();
  const std::uint32_t dl = decay_length(g.max_degree());
  const std::uint64_t k = bgi_phase_quota(n);
  const std::uint64_t phases = 2 * (diameter(g) + k + 2);
  constexpr std::uint64_t kSeed = 5;
  const BgiOutcome standalone = run_bgi_broadcast(g, 0, phases, kSeed);
  ASSERT_EQ(standalone.informed_count, n);

  const SlotTime base = 1000 * dl + 7;  // not on a phase boundary
  Rng master(kSeed);
  std::vector<std::unique_ptr<FloodStation>> floods;
  std::vector<std::unique_ptr<DelayedFlood>> stations;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < n; ++v) {
    floods.push_back(std::make_unique<FloodStation>(dl, k, Rng(0)));
    floods.back()->reset(master.split(v), base);
    stations.push_back(std::make_unique<DelayedFlood>(*floods.back(), base,
                                                      /*source=*/v == 0));
    ptrs.push_back(stations.back().get());
  }
  RadioNetwork net(g);
  net.attach(std::move(ptrs));
  net.run(base + phases * dl);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_TRUE(floods[v]->informed()) << v;
    EXPECT_EQ(floods[v]->informed_at(), standalone.informed_at[v]) << v;
  }
  EXPECT_EQ(net.engine_stats().station_polls, standalone.engine_polls + 1);
}

class LeaderSweep : public ::testing::TestWithParam<int> {};

TEST_P(LeaderSweep, MaxIdWinsUnanimously) {
  Rng rng(300 + GetParam());
  std::vector<Graph> graphs;
  graphs.push_back(gen::path(20));
  graphs.push_back(gen::grid(4, 6));
  graphs.push_back(gen::gnp_connected(25, 0.25, rng));
  graphs.push_back(gen::complete(12));
  graphs.push_back(gen::star(14));
  for (const Graph& g : graphs) {
    const std::uint64_t phases =
        16 * (diameter(g) + 2 * ceil_log2(g.num_nodes()) + 4);
    const auto out = run_leader_election(g, phases, rng.next());
    EXPECT_TRUE(out.unanimous)
        << "n=" << g.num_nodes() << " phases=" << phases;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeaderSweep, ::testing::Range(0, 5));

TEST(Leader, BestNeverDecreasesAndIsAnId) {
  Rng rng(44);
  const Graph g = gen::gnp_connected(15, 0.3, rng);
  const auto out = run_leader_election(g, 10, rng.next());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(out.best[v], v);  // own id is the floor
    EXPECT_LT(out.best[v], g.num_nodes());
  }
}

TEST(Leader, SingleNode) {
  const Graph g = gen::path(1);
  const auto out = run_leader_election(g, 1, 5);
  EXPECT_TRUE(out.unanimous);
}

class BfsBuildSweep : public ::testing::TestWithParam<int> {};

TEST_P(BfsBuildSweep, ProducesTrueBfsTree) {
  Rng rng(500 + GetParam());
  std::vector<Graph> graphs;
  graphs.push_back(gen::path(20));
  graphs.push_back(gen::grid(5, 5));
  graphs.push_back(gen::gnp_connected(30, 0.2, rng));
  graphs.push_back(gen::unit_disk_connected(25, 0.5, rng));
  graphs.push_back(gen::complete(10));
  for (const Graph& g : graphs) {
    BfsBuildConfig cfg;
    cfg.decay_len = decay_length(g.max_degree());
    cfg.announce_phases = 2 * ceil_log2(g.num_nodes()) + 2;
    const NodeId root = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto out = run_bfs_build(g, root, cfg, rng.next());
    ASSERT_TRUE(out.all_joined) << "n=" << g.num_nodes();
    EXPECT_TRUE(out.is_true_bfs);
    EXPECT_TRUE(is_bfs_tree_of(g, out.tree));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsBuildSweep, ::testing::Range(0, 5));

TEST(BfsBuild, StopsAfterEmptyStage) {
  // On a short path the driver must stop long before max_stages.
  const Graph g = gen::path(6);
  BfsBuildConfig cfg;
  cfg.decay_len = 2;
  cfg.announce_phases = 8;
  const auto out = run_bfs_build(g, 0, cfg, 77);
  ASSERT_TRUE(out.all_joined);
  const std::uint64_t stage_slots =
      static_cast<std::uint64_t>(cfg.decay_len) * cfg.announce_phases;
  EXPECT_LE(out.slots, stage_slots * 7);
}

TEST(BfsBuild, SingleNodeGraph) {
  const Graph g = gen::path(1);
  BfsBuildConfig cfg;
  const auto out = run_bfs_build(g, 0, cfg, 3);
  EXPECT_TRUE(out.all_joined);
  EXPECT_EQ(out.tree.depth, 0u);
}

TEST(BfsBuild, TinyBudgetCanFailButNeverLies) {
  // announce_phases = 1 gives each stage a single Decay invocation; on a
  // dense graph some nodes may miss it. The driver must then report
  // all_joined = false rather than fabricate a tree.
  Rng rng(91);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    const Graph g = gen::complete(16);
    BfsBuildConfig cfg;
    cfg.decay_len = decay_length(g.max_degree());
    cfg.announce_phases = 1;
    const auto out = run_bfs_build(g, 0, cfg, rng.next());
    if (!out.all_joined) {
      ++failures;
    } else {
      EXPECT_TRUE(is_bfs_tree_of(g, out.tree));
    }
  }
  SUCCEED() << failures << "/10 tiny-budget builds failed (expected >= 0)";
}

}  // namespace
}  // namespace radiomc
