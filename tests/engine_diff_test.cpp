// Differential test harness: the active-set RadioNetwork vs the frozen
// pre-rewrite engine (reference_engine.{h,cpp}), driven over a randomized
// matrix of (topology x seed x channels x capture_prob x fault plan) and
// required to be BYTE-IDENTICAL in:
//
//   * the delivery sequence every station observes (slot, channel, origin,
//     seq, payload, sender),
//   * every NetMetrics field,
//   * the JSONL trace stream (radiomc.trace/v2, compared as raw bytes),
//
// plus invariance of all of the above across `run_trials --jobs 1` vs
// `--jobs 8` when the matrix is evaluated on the thread pool.
//
// The station population mixes three behaviors so both the legacy
// always-active path and the Waker contract are exercised:
//
//   * RandomChatter (legacy, never touches its Waker): transmits from a
//     private Rng stream, so its behavior is trivially engine-independent
//     and it keeps the channel busy;
//   * SleepyResponder (autosleep): silent until it receives a message,
//     then wakes and transmits a short burst; its transmissions depend only
//     on (absolute slot, receptions), honoring the waker promise that
//     skipped idle polls are unobservable;
//   * PeriodicBeacon (autosleep, self-waking): transmits every k-th slot
//     and re-arms its own wake from on_slot, exercising retention by
//     wake() rather than by transmitting;
//   * TimerBeacon (autosleep, timed wakes): transmits every k-th slot and
//     k' slots after each reception, sleeping in between on `wake_at`
//     timers — proving a station can bridge a multi-slot gap, and that a
//     timer falling due while the station is crashed admits it frozen.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/generators.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/broadcast_service.h"
#include "protocols/collection.h"
#include "protocols/decay.h"
#include "protocols/dfs_numbering.h"
#include "protocols/point_to_point.h"
#include "protocols/tree.h"
#include "radio/network.h"
#include "reference_engine.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "telemetry/jsonl_sink.h"

namespace radiomc {
namespace {

using Delivery = std::tuple<SlotTime, ChannelId, NodeId, std::uint32_t,
                            std::uint64_t, NodeId>;

/// Legacy station: random transmissions from a private stream; records
/// deliveries. Never touches its Waker, so it stays permanently active.
class RandomChatter : public Station {
 public:
  RandomChatter(NodeId self, ChannelId channels, double tx_prob, Rng rng)
      : self_(self), channels_(channels), tx_prob_(tx_prob), rng_(rng) {}

  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (!rng_.bernoulli(tx_prob_)) return;
    Message m;
    m.kind = MsgKind::kData;
    m.origin = self_;
    m.seq = seq_++;
    m.payload = rng_.next();
    tx[rng_.next_below(channels_)] = m;
    (void)t;
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq, m.payload, m.sender);
  }

  std::vector<Delivery> received;

 private:
  NodeId self_;
  ChannelId channels_;
  double tx_prob_;
  Rng rng_;
  std::uint32_t seq_ = 0;
};

/// Autosleep station: wakes on reception and transmits for `burst` slots
/// (computed from the reception slot, never from poll counts).
class SleepyResponder : public Station {
 public:
  SleepyResponder(NodeId self, std::uint32_t burst)
      : self_(self), burst_(burst) {}

  void on_attach(Waker& w) override {
    waker_ = &w;
    w.set_autosleep(true);
  }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (t >= burst_from_ && t < burst_from_ + burst_) {
      Message m;
      m.kind = MsgKind::kAck;
      m.origin = self_;
      m.seq = static_cast<std::uint32_t>(t - burst_from_);
      m.payload = echo_;
      tx[0] = m;
    }
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq, m.payload, m.sender);
    burst_from_ = t + 1;
    echo_ = m.payload ^ (static_cast<std::uint64_t>(self_) << 32);
    if (waker_ != nullptr) waker_->wake();
  }

  std::vector<Delivery> received;

 private:
  NodeId self_;
  std::uint32_t burst_;
  SlotTime burst_from_ = ~SlotTime{0};
  std::uint64_t echo_ = 0;
  Waker* waker_ = nullptr;  // null under the reference engine
};

/// Autosleep station transmitting every `period`-th slot, re-arming its own
/// wake. Under the reference engine (no wakers) it is polled every slot and
/// behaves identically because the transmit test is on absolute slot time.
class PeriodicBeacon : public Station {
 public:
  PeriodicBeacon(NodeId self, SlotTime period) : self_(self), period_(period) {}

  void on_attach(Waker& w) override {
    waker_ = &w;
    w.set_autosleep(true);
  }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    if (t % period_ == self_ % period_) {
      Message m;
      m.kind = MsgKind::kLeader;
      m.origin = self_;
      m.seq = static_cast<std::uint32_t>(t / period_);
      tx[0] = m;
    }
    // A wake() only spans one slot, so an autosleep station with a
    // multi-slot schedule must re-arm every poll. This keeps the beacon
    // effectively always scheduled — deliberately: it exercises the
    // "kept awake by wake(), not by transmitting" retention path, while
    // SleepyResponder covers genuine descheduling.
    if (waker_ != nullptr) waker_->wake();
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq, m.payload, m.sender);
    if (waker_ != nullptr) waker_->wake();
  }

  std::vector<Delivery> received;

 private:
  NodeId self_;
  SlotTime period_;
  Waker* waker_ = nullptr;
};

/// Autosleep station that sleeps between self-scheduled duties on timed
/// wakes: a beacon every `period`-th slot (offset by id) and a reply
/// `1 + (origin + self) % 6` slots after each reception. Both depend only
/// on absolute time and receptions, so under the reference engine (no
/// wakers, polled every slot) it behaves identically.
class TimerBeacon : public Station {
 public:
  TimerBeacon(NodeId self, SlotTime period) : self_(self), period_(period) {}

  void on_attach(Waker& w) override {
    waker_ = &w;
    w.set_autosleep(true);
  }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    const bool beacon = t % period_ == self_ % period_;
    const bool reply = replies_.erase(t) != 0;
    if (beacon || reply) {
      Message m;
      m.kind = MsgKind::kBcastData;
      m.origin = self_;
      m.seq = static_cast<std::uint32_t>(t);
      m.payload = reply ? 1 : 0;
      tx[0] = m;
    }
    if (waker_ != nullptr) {
      const SlotTime from = t + 1;
      waker_->wake_at(from + (self_ % period_ + period_ - from % period_) %
                                 period_);
    }
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq, m.payload, m.sender);
    const SlotTime at = t + 1 + (m.origin + self_) % 6;
    replies_.insert(at);
    if (waker_ != nullptr) waker_->wake_at(at);
  }

  std::vector<Delivery> received;

 private:
  NodeId self_;
  SlotTime period_;
  std::set<SlotTime> replies_;
  Waker* waker_ = nullptr;
};

struct Cell {
  std::string name;
  Graph graph;
  ChannelId channels = 1;
  bool rx_while_tx_other = true;
  double capture_prob = 0.0;
  FaultPlan plan;  // default: disabled
  std::uint64_t seed = 0;
  SlotTime slots = 400;
};

/// Everything one engine produced, in comparable (and printable) form.
struct RunDigest {
  std::vector<std::vector<Delivery>> per_station;
  NetMetrics metrics;
  std::string trace;
  /// Slots the active-set engine ordered by its bitmap sweep; not compared
  /// (the reference engine has no such path).
  std::uint64_t bitmap_slots = 0;

  bool operator==(const RunDigest& o) const {
    return per_station == o.per_station && trace == o.trace &&
           metrics.slots == o.metrics.slots &&
           metrics.transmissions == o.metrics.transmissions &&
           metrics.deliveries == o.metrics.deliveries &&
           metrics.collision_events == o.metrics.collision_events &&
           metrics.capture_deliveries == o.metrics.capture_deliveries &&
           metrics.fault_jams == o.metrics.fault_jams &&
           metrics.fault_drops == o.metrics.fault_drops &&
           metrics.fault_link_blocked == o.metrics.fault_link_blocked &&
           metrics.fault_crashed_slots == o.metrics.fault_crashed_slots;
  }
};

/// Builds the mixed station population for `cell` (same construction for
/// both engines; station randomness derives from cell.seed only).
struct Population {
  std::deque<RandomChatter> chatters;
  std::deque<SleepyResponder> sleepers;
  std::deque<PeriodicBeacon> beacons;
  std::deque<TimerBeacon> timers;
  std::vector<Station*> stations;
  std::vector<std::vector<Delivery>*> logs;

  explicit Population(const Cell& cell) {
    Rng master(cell.seed);
    const NodeId n = cell.graph.num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      switch (v % 4) {
        case 0:
          chatters.emplace_back(v, cell.channels, 0.15, master.split(v));
          stations.push_back(&chatters.back());
          logs.push_back(&chatters.back().received);
          break;
        case 1:
          sleepers.emplace_back(v, 3 + v % 4);
          stations.push_back(&sleepers.back());
          logs.push_back(&sleepers.back().received);
          break;
        case 2:
          beacons.emplace_back(v, 5 + v % 7);
          stations.push_back(&beacons.back());
          logs.push_back(&beacons.back().received);
          break;
        default:
          timers.emplace_back(v, 9 + v % 13);
          stations.push_back(&timers.back());
          logs.push_back(&timers.back().received);
          break;
      }
    }
  }
};

RadioNetwork::Config net_config(const Cell& cell) {
  RadioNetwork::Config cfg;
  cfg.num_channels = cell.channels;
  cfg.rx_while_tx_other = cell.rx_while_tx_other;
  cfg.capture_prob = cell.capture_prob;
  cfg.capture_stream = Rng(cell.seed ^ 0xCA97CA97ULL);
  return cfg;
}

template <typename Engine>
RunDigest run_engine(const Cell& cell) {
  Population pop(cell);
  std::ostringstream trace_out;
  telemetry::JsonlTraceSink trace(trace_out);
  Engine net(cell.graph, net_config(cell));
  FaultSchedule faults(cell.graph, cell.plan, cell.seed ^ 0xFA17ULL);
  net.set_faults(&faults);
  net.set_trace(&trace);
  net.attach(pop.stations);
  net.run(cell.slots);
  trace.finish();

  RunDigest d;
  for (auto* log : pop.logs) d.per_station.push_back(*log);
  d.metrics = net.metrics();
  d.trace = trace_out.str();
  if constexpr (std::is_same_v<Engine, RadioNetwork>)
    d.bitmap_slots = net.engine_stats().bitmap_slots;
  return d;
}

RunDigest run_active(const Cell& cell) {
  return run_engine<RadioNetwork>(cell);
}
RunDigest run_reference(const Cell& cell) {
  return run_engine<radiomc::testing::ReferenceNetwork>(cell);
}

FaultPlan crash_plan() {
  FaultPlan p;
  p.crash_rate = 0.05;
  p.recover_rate = 0.4;
  p.epoch_slots = 16;
  return p;
}

FaultPlan noise_plan() {
  FaultPlan p;
  p.jam_prob = 0.08;
  p.drop_prob = 0.05;
  return p;
}

FaultPlan link_plan() {
  FaultPlan p;
  p.link_down_rate = 0.05;
  p.link_up_rate = 0.5;
  p.epoch_slots = 8;
  return p;
}

FaultPlan everything_plan() {
  FaultPlan p = crash_plan();
  p.jam_prob = 0.05;
  p.drop_prob = 0.03;
  p.link_down_rate = 0.03;
  p.link_up_rate = 0.5;
  return p;
}

std::vector<Cell> build_matrix() {
  std::vector<Cell> cells;
  Rng topo_rng(0xD1FF);
  struct Topo {
    std::string name;
    Graph g;
  };
  std::vector<Topo> topologies;
  topologies.push_back({"path32", gen::path(32)});
  topologies.push_back({"star24", gen::star(24)});
  topologies.push_back({"grid8x8", gen::grid(8, 8)});
  topologies.push_back({"gnp96", gen::gnp_connected(96, 0.08, topo_rng)});
  topologies.push_back(
      {"udg80", gen::unit_disk_connected(80, gen::udg_connect_radius(80),
                                         topo_rng)});
  topologies.push_back({"barbell", gen::barbell(10, 4)});
  topologies.push_back({"gnp_sparse", gen::gnp_sparse_connected(
                                          200, 14.0 / 200.0, topo_rng)});

  const std::vector<std::pair<std::string, FaultPlan>> plans = {
      {"nofault", FaultPlan{}},
      {"crash", crash_plan()},
      {"noise", noise_plan()},
      {"links", link_plan()},
      {"all", everything_plan()},
  };

  for (const auto& topo : topologies) {
    int i = 0;
    for (const auto& [plan_name, plan] : plans) {
      Cell c;
      c.graph = topo.g;
      c.plan = plan;
      // Sweep channels / capture / duplexing with the plan index so the
      // matrix covers the config space without exploding combinatorially.
      c.channels = (i % 2 == 0) ? 1 : 2;
      c.capture_prob = (i % 3 == 1) ? 0.5 : 0.0;
      c.rx_while_tx_other = i % 4 != 3;
      c.seed = 0x5EED0000 + i * 977 + topo.g.num_nodes();
      c.name = topo.name + "/" + plan_name;
      cells.push_back(std::move(c));
      ++i;
    }
  }
  return cells;
}

TEST(EngineDiff, ActiveSetEngineIsByteIdenticalToReference) {
  const std::vector<Cell> cells = build_matrix();
  ASSERT_GE(cells.size(), 30u);
  for (const Cell& cell : cells) {
    const RunDigest a = run_active(cell);
    const RunDigest r = run_reference(cell);
    EXPECT_TRUE(a == r) << "divergence in cell " << cell.name;
    // On mismatch, narrow the report so the failure is actionable.
    if (!(a == r)) {
      EXPECT_EQ(a.metrics.transmissions, r.metrics.transmissions)
          << cell.name;
      EXPECT_EQ(a.metrics.deliveries, r.metrics.deliveries) << cell.name;
      EXPECT_EQ(a.metrics.collision_events, r.metrics.collision_events)
          << cell.name;
      EXPECT_EQ(a.metrics.fault_jams, r.metrics.fault_jams) << cell.name;
      EXPECT_EQ(a.metrics.fault_crashed_slots, r.metrics.fault_crashed_slots)
          << cell.name;
      EXPECT_EQ(a.trace.size(), r.trace.size()) << cell.name;
      ASSERT_EQ(a.per_station.size(), r.per_station.size()) << cell.name;
      for (std::size_t v = 0; v < a.per_station.size(); ++v)
        EXPECT_EQ(a.per_station[v], r.per_station[v])
            << cell.name << " station " << v;
      break;  // one fully-reported divergence is enough output
    }
  }
}

TEST(EngineDiff, SeedSweepOnDenseAndSparseCells) {
  // A deeper per-seed sweep on two contrasting cells: a collision-storm
  // star (every slot superposes) and a sparse path (most stations idle,
  // maximally exercising descheduling).
  Rng topo_rng(0xD1FF + 1);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Cell dense;
    dense.graph = gen::star(16);
    dense.capture_prob = 0.3;
    dense.seed = seed * 7919;
    dense.slots = 300;
    dense.name = "star16/seed" + std::to_string(seed);
    EXPECT_TRUE(run_active(dense) == run_reference(dense)) << dense.name;

    Cell sparse;
    sparse.graph = gen::path(64);
    sparse.channels = 2;
    sparse.plan = everything_plan();
    sparse.seed = seed * 104729;
    sparse.slots = 300;
    sparse.name = "path64/seed" + std::to_string(seed);
    EXPECT_TRUE(run_active(sparse) == run_reference(sparse)) << sparse.name;
  }
}

TEST(EngineDiff, DenseCellsTakeTheBitmapPathAndStayIdentical) {
  // The matrix cells above have at most 200 nodes, so only a few dozen
  // slots of two gnp_sparse cells touch enough receiver cells to leave
  // the sort path. On a 600-node gnp of mean degree ~40 the mixed
  // population touches most cells in most slots, so Phase 3 orders them
  // with the bitmap sweep; every config axis and fault kind must still
  // match the reference byte for byte.
  Rng topo_rng(0xDE45E);
  const Graph g = gen::gnp_connected(600, 40.0 / 600.0, topo_rng);
  std::vector<Cell> cells(5);
  cells[1].channels = 2;
  cells[2].capture_prob = 0.5;
  cells[3].channels = 2;
  cells[3].rx_while_tx_other = false;
  cells[4].channels = 2;
  cells[4].capture_prob = 0.5;
  cells[4].plan = everything_plan();
  const char* names[] = {"plain", "2ch", "capture", "2ch-halfduplex",
                         "2ch-capture-all"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell& c = cells[i];
    c.graph = g;
    c.seed = 0xDE45E000 + i * 131;
    c.slots = 200;
    c.name = std::string("gnp600/") + names[i];
    const RunDigest a = run_active(c);
    const RunDigest r = run_reference(c);
    EXPECT_TRUE(a == r) << "divergence in cell " << c.name;
    EXPECT_GT(a.metrics.deliveries, 0u) << c.name;
    EXPECT_GT(a.bitmap_slots, c.slots / 2) << c.name;
  }
}

TEST(EngineDiff, MatrixIsJobCountInvariant) {
  // The same matrix evaluated on the deterministic trial pool: --jobs 8
  // must produce byte-identical digests to --jobs 1, for both engines.
  // (Each trial builds its own graph copy: Cell holds the Graph by value,
  // and populations/engines are trial-local, so nothing is shared.)
  const std::vector<Cell> cells = build_matrix();
  const auto eval = [&cells](unsigned jobs) {
    Rng root(0xB0B);  // run_trials requires a root stream; cells carry seeds
    return run_trials(cells.size(), jobs, root,
                      [&cells](std::size_t i, Rng&) {
                        const RunDigest a = run_active(cells[i]);
                        const RunDigest r = run_reference(cells[i]);
                        // Fold the cross-engine check into the parallel run
                        // so TSan sees the full workload too.
                        return std::make_pair(a == r, a);
                      });
  };
  const auto serial = eval(1);
  const auto parallel = eval(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].first) << "engine divergence in cell " << i;
    EXPECT_TRUE(serial[i].second == parallel[i].second)
        << "job-count divergence in cell " << i;
  }
}

// ---------------------------------------------------------------------------
// Protocol-level autosleep A/B: the production protocols that adopted the
// Waker contract must be byte-identical with autosleep on vs off — the
// only thing allowed to change is how many polls the engine spends.
// ---------------------------------------------------------------------------

std::vector<Message> one_data_message_each(const Graph& g) {
  std::vector<Message> init;
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    Message m;
    m.kind = MsgKind::kData;
    m.origin = v;
    m.seq = 0;
    m.payload = 7000 + v;
    init.push_back(m);
  }
  return init;
}

TEST(AutosleepAB, CollectionIsByteIdenticalAndPollsLess) {
  const std::vector<Graph> graphs = {gen::path(24), gen::grid(5, 5),
                                     gen::star(16)};
  for (const Graph& g : graphs) {
    const BfsTree tree = oracle_bfs_tree(g, 0);
    CollectionConfig on = CollectionConfig::for_graph(g);
    on.autosleep = true;
    CollectionConfig off = on;
    off.autosleep = false;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto a = run_collection(g, tree, one_data_message_each(g), on,
                                    seed);
      const auto b = run_collection(g, tree, one_data_message_each(g), off,
                                    seed);
      ASSERT_TRUE(a.completed);
      ASSERT_TRUE(b.completed);
      EXPECT_EQ(a.slots, b.slots);
      EXPECT_EQ(a.phases, b.phases);
      EXPECT_EQ(a.occupied_phases, b.occupied_phases);
      EXPECT_EQ(a.advance_phases, b.advance_phases);
      ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
      for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
        EXPECT_EQ(a.deliveries[i].slot, b.deliveries[i].slot);
        EXPECT_EQ(a.deliveries[i].msg.origin, b.deliveries[i].msg.origin);
        EXPECT_EQ(a.deliveries[i].msg.seq, b.deliveries[i].msg.seq);
        EXPECT_EQ(a.deliveries[i].msg.sender, b.deliveries[i].msg.sender);
      }
      // Drained stations sleep out the tail of the run.
      EXPECT_LT(a.engine_polls, b.engine_polls)
          << "seed " << seed << " n=" << g.num_nodes();
    }
  }
}

TEST(AutosleepAB, CollectionIdenticalUnderFaultsToo) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  CollectionConfig on = CollectionConfig::for_graph(g);
  on.dedup_guard = true;
  on.faults.crash_rate = 0.02;
  on.faults.recover_rate = 0.3;
  on.faults.drop_prob = 0.02;
  on.faults.epoch_slots = 256;
  CollectionConfig off = on;
  off.autosleep = false;
  const auto a =
      run_collection(g, tree, one_data_message_each(g), on, 9, 400'000);
  const auto b =
      run_collection(g, tree, one_data_message_each(g), off, 9, 400'000);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slots, b.slots);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].slot, b.deliveries[i].slot);
    EXPECT_EQ(a.deliveries[i].msg.origin, b.deliveries[i].msg.origin);
  }
}

TEST(AutosleepAB, DecayTrialIsByteIdenticalAndPollsLess) {
  // Listeners never transmit and a live Decay process transmits on every
  // polled slot, so autosleep needs zero wake() calls: the result must
  // match with strictly fewer polls (the listeners' idle slots).
  const Graph g = gen::star(20);
  std::vector<NodeId> transmitters;
  for (NodeId v = 1; v <= 6; ++v) transmitters.push_back(v);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng_on(seed * 31);
    Rng rng_off(seed * 31);
    std::uint64_t polls_on = 0, polls_off = 0;
    const bool a = decay_single_trial(g, 0, transmitters, 8, rng_on, nullptr,
                                      /*autosleep=*/true, &polls_on);
    const bool b = decay_single_trial(g, 0, transmitters, 8, rng_off, nullptr,
                                      /*autosleep=*/false, &polls_off);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(rng_on.next(), rng_off.next()) << "seed " << seed;
    EXPECT_LT(polls_on, polls_off) << "seed " << seed;
  }
}

TEST(AutosleepAB, KBroadcastIsByteIdenticalAndPollsLess) {
  // Distribution + collection under the coordinated ChannelMuxStation:
  // every node's in-order delivery log must match slot-for-slot, and the
  // root's resend/idle-rebroadcast books must agree — only the poll count
  // may change.
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < g.num_nodes(); v += 3) sources.push_back(v);
  BroadcastServiceConfig on = BroadcastServiceConfig::for_graph(g);
  on.collection.autosleep = true;
  on.distribution.autosleep = true;
  on.distribution.window = 4;
  BroadcastServiceConfig off = on;
  off.collection.autosleep = false;
  off.distribution.autosleep = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const KBroadcastOutcome a =
        run_k_broadcast(g, tree, sources, on, seed, 2'000'000);
    const KBroadcastOutcome b =
        run_k_broadcast(g, tree, sources, off, seed, 2'000'000);
    ASSERT_TRUE(a.completed) << "seed " << seed;
    ASSERT_TRUE(b.completed) << "seed " << seed;
    EXPECT_EQ(a.slots, b.slots) << "seed " << seed;
    EXPECT_EQ(a.delivered_prefix, b.delivered_prefix) << "seed " << seed;
    EXPECT_EQ(a.root_resends, b.root_resends) << "seed " << seed;
    EXPECT_LT(a.engine_polls, b.engine_polls) << "seed " << seed;
  }
}

TEST(AutosleepAB, BroadcastDeliveryLogsIdenticalSlotForSlot) {
  // Stronger than outcome equality: drive two services in lockstep and
  // compare every node's (slot, seq) delivery log byte-for-byte.
  const Graph g = gen::path(18);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastServiceConfig on = BroadcastServiceConfig::for_graph(g);
  on.distribution.window = 4;
  BroadcastServiceConfig off = on;
  off.collection.autosleep = false;
  off.distribution.autosleep = false;
  BroadcastService sa(g, tree, on, 77);
  BroadcastService sb(g, tree, off, 77);
  for (NodeId v = 0; v < g.num_nodes(); v += 2) {
    sa.broadcast(v, 4000 + v);
    sb.broadcast(v, 4000 + v);
  }
  ASSERT_TRUE(sa.run_until_delivered(2'000'000));
  ASSERT_TRUE(sb.run_until_delivered(2'000'000));
  EXPECT_EQ(sa.now(), sb.now());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(sa.distribution(v).delivery_log(),
              sb.distribution(v).delivery_log())
        << "node " << v;
  EXPECT_LT(sa.engine_stats().station_polls, sb.engine_stats().station_polls);
}

TEST(AutosleepAB, BroadcastIdenticalUnderFaultsToo) {
  const Graph g = gen::grid(4, 4);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  BroadcastServiceConfig on = BroadcastServiceConfig::for_graph(g);
  on.distribution.window = 4;
  on.faults.crash_rate = 0.01;
  on.faults.recover_rate = 0.3;
  on.faults.drop_prob = 0.02;
  on.faults.epoch_slots = 512;
  on.stall_slots = 200'000;
  BroadcastServiceConfig off = on;
  off.collection.autosleep = false;
  off.distribution.autosleep = false;
  std::vector<NodeId> sources = {1, 5, 9, 13};
  const KBroadcastOutcome a =
      run_k_broadcast(g, tree, sources, on, 11, 1'000'000);
  const KBroadcastOutcome b =
      run_k_broadcast(g, tree, sources, off, 11, 1'000'000);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.delivered_prefix, b.delivered_prefix);
  EXPECT_EQ(a.root_resends, b.root_resends);
}

TEST(AutosleepAB, PointToPointIsByteIdenticalAndPollsLess) {
  Rng rng(414);
  const Graph g = gen::gnp_connected(24, 0.2, rng);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  const PreparationResult prep = run_preparation(g, tree);
  ASSERT_TRUE(prep.ok);
  std::vector<P2pRequest> reqs;
  for (int i = 0; i < 20; ++i)
    reqs.push_back({static_cast<NodeId>(rng.next_below(g.num_nodes())),
                    static_cast<NodeId>(rng.next_below(g.num_nodes())),
                    static_cast<std::uint64_t>(9000 + i)});
  P2pConfig on = P2pConfig::for_graph(g);
  on.autosleep = true;
  P2pConfig off = on;
  off.autosleep = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const P2pOutcome a = run_point_to_point(g, prep, reqs, on, seed);
    const P2pOutcome b = run_point_to_point(g, prep, reqs, off, seed);
    ASSERT_TRUE(a.completed) << "seed " << seed;
    ASSERT_TRUE(b.completed) << "seed " << seed;
    EXPECT_EQ(a.slots, b.slots) << "seed " << seed;
    EXPECT_EQ(a.delivery_slot, b.delivery_slot) << "seed " << seed;
    EXPECT_LT(a.engine_polls, b.engine_polls) << "seed " << seed;
  }
}

TEST(AutosleepAB, FloodIsByteIdenticalAndPollsLess) {
  // The flood sleeps in three places: on a long path most stations wait
  // for the wave; on a dense graph an informed station sleeps from the
  // slot its Decay dies to the next phase start, a timer that a crash
  // plan with 16-slot epochs (decay_len 12 here) lets fall due while the
  // station is down, so the station resumes on another phase.
  const Graph path = gen::path(64);
  Rng topo_rng(0xF100D);
  const Graph dense = gen::gnp_connected(200, 0.2, topo_rng);
  ASSERT_GE(dense.max_degree(), 30u);
  ASSERT_EQ(decay_length(dense.max_degree()), 12u);
  FaultPlan crashes = crash_plan();
  crashes.crash_rate = 0.1;
  struct Case {
    const char* name;
    const Graph& g;
    std::uint64_t phases;
    FaultPlan plan;
  };
  const Case cases[] = {{"path64", path, 400, {}},
                        {"gnp200", dense, 120, {}},
                        {"gnp200/crash", dense, 120, crashes}};
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const BgiOutcome a = run_bgi_broadcast(c.g, 0, c.phases, seed, c.plan,
                                             /*autosleep=*/true);
      const BgiOutcome b = run_bgi_broadcast(c.g, 0, c.phases, seed, c.plan,
                                             /*autosleep=*/false);
      EXPECT_EQ(a.slots, b.slots) << c.name;
      EXPECT_EQ(a.informed_count, b.informed_count) << c.name;
      EXPECT_EQ(a.informed, b.informed) << c.name;
      EXPECT_EQ(a.informed_at, b.informed_at) << c.name;
      EXPECT_LT(a.engine_polls, b.engine_polls)
          << c.name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace radiomc
