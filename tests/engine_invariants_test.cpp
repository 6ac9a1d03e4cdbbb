// Randomized engine-invariant property tests for the active-set
// RadioNetwork. Where engine_diff_test.cpp proves the rewrite equals the
// frozen reference byte-for-byte, this suite checks that both of them
// compute the *model* of §1.1 — properties stated directly against the
// paper's semantics, verified on the event stream of randomized runs:
//
//   * every delivery is explained by exactly one transmitting neighbor of
//     the receiver, on that channel, in that same slot, carrying that very
//     message (which also rules out any cross-slot leakage of the
//     epoch-stamped rx cells: a stale cell would surface as a delivery
//     with no same-slot transmitter);
//   * every collision event has >= 2 transmitting neighbors (fault-free
//     runs; jams are the txn == 1 case and only exist under a plan);
//   * deliveries are bounded by the transmitters' degrees (the radio
//     analogue of "deliveries <= transmissions": one transmission can be
//     heard by at most deg(sender) stations);
//   * crashed stations never transmit and never receive, checked against
//     the fault schedule's per-slot alive view;
//   * active-set membership is exactly "transmitted last slot, or woken,
//     or a timed wake fell due, or not autosleeping" — predicted by an
//     independent model in the test and compared against both the
//     stations' observed polls and RadioNetwork::station_active; the
//     TimedWake rows pin each timer case (past slots, duplicates,
//     re-arms, crashes, opt-out) one by one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/fault_schedule.h"
#include "graph/generators.h"
#include "radio/active_set.h"
#include "radio/network.h"
#include "support/rng.h"

namespace radiomc {
namespace {

/// Legacy random transmitter (never touches its Waker).
class Chatter : public Station {
 public:
  Chatter(NodeId self, ChannelId channels, double tx_prob, Rng rng)
      : self_(self), channels_(channels), tx_prob_(tx_prob), rng_(rng) {}

  void on_slot(SlotTime, std::span<std::optional<Message>> tx) override {
    if (!rng_.bernoulli(tx_prob_)) return;
    Message m;
    m.origin = self_;
    m.seq = seq_++;
    tx[rng_.next_below(channels_)] = m;
  }
  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    received.emplace_back(t, ch, m.origin, m.seq);
  }

  std::vector<std::tuple<SlotTime, ChannelId, NodeId, std::uint32_t>> received;

 private:
  NodeId self_;
  ChannelId channels_;
  double tx_prob_;
  Rng rng_;
  std::uint32_t seq_ = 0;
};

Graph make_graph(int which, Rng& rng) {
  switch (which % 4) {
    case 0:
      return gen::grid(6, 7);
    case 1:
      return gen::gnp_connected(48, 0.12, rng);
    case 2:
      return gen::star(20);
    default:
      return gen::unit_disk_connected(40, gen::udg_connect_radius(40), rng);
  }
}

TEST(EngineInvariants, EveryDeliveryHasExactlyOneSameSlotTransmittingNeighbor) {
  Rng rng(0x1A7E57);
  for (int round = 0; round < 8; ++round) {
    const Graph g = make_graph(round, rng);
    const ChannelId channels = 1 + round % 2;

    std::deque<Chatter> stations;
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      stations.emplace_back(v, channels, 0.2, rng.split(v));
      ptrs.push_back(&stations.back());
    }

    RadioNetwork::Config cfg;
    cfg.num_channels = channels;
    RadioNetwork net(g, cfg);
    EventRecorder rec;
    net.set_trace(&rec);
    net.attach(ptrs);
    net.run(250);
    ASSERT_FALSE(rec.truncated());

    // Index transmissions by (slot, channel) -> {sender -> (origin, seq)}.
    std::map<std::pair<SlotTime, ChannelId>,
             std::map<NodeId, std::pair<NodeId, std::uint32_t>>>
        tx_at;
    for (const auto& e : rec.events())
      if (e.kind == EventRecorder::Kind::kTransmit)
        tx_at[{e.slot, e.channel}][e.node] = {e.origin, e.seq};

    std::uint64_t deliveries_checked = 0;
    for (const auto& e : rec.events()) {
      if (e.kind == EventRecorder::Kind::kDeliver) {
        const auto& senders = tx_at[{e.slot, e.channel}];
        std::uint32_t tx_neighbors = 0;
        bool msg_matches = false;
        for (const NodeId u : g.neighbors(e.node)) {
          const auto it = senders.find(u);
          if (it == senders.end()) continue;
          ++tx_neighbors;
          msg_matches = it->second == std::make_pair(e.origin, e.seq);
        }
        EXPECT_EQ(tx_neighbors, 1u)
            << "delivery to " << e.node << " at slot " << e.slot;
        EXPECT_TRUE(msg_matches)
            << "delivered message does not match the unique transmitter";
        ++deliveries_checked;
      } else if (e.kind == EventRecorder::Kind::kCollision) {
        // Fault-free: every collision event must be a genuine collision.
        EXPECT_GE(e.tx_neighbors, 2u);
        std::uint32_t tx_neighbors = 0;
        const auto& senders = tx_at[{e.slot, e.channel}];
        for (const NodeId u : g.neighbors(e.node))
          tx_neighbors += senders.count(u) != 0 ? 1 : 0;
        EXPECT_EQ(tx_neighbors, e.tx_neighbors)
            << "collision fan-in mismatch at node " << e.node;
      }
    }
    EXPECT_GT(deliveries_checked, 0u) << "round " << round << " was vacuous";
    EXPECT_EQ(deliveries_checked, net.metrics().deliveries);

    // Degree bound: each transmission reaches at most deg(sender) listeners.
    std::uint64_t degree_budget = 0;
    for (const auto& e : rec.events())
      if (e.kind == EventRecorder::Kind::kTransmit)
        degree_budget += g.degree(e.node);
    EXPECT_LE(net.metrics().deliveries + net.metrics().collision_events,
              degree_budget * channels);
    EXPECT_LE(net.metrics().capture_deliveries, net.metrics().deliveries);
  }
}

TEST(EngineInvariants, CrashedStationsNeverTransmitOrReceive) {
  Rng rng(0xC4A5);
  for (int round = 0; round < 6; ++round) {
    const Graph g = make_graph(round, rng);

    std::deque<Chatter> stations;
    std::vector<Station*> ptrs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      stations.emplace_back(v, 1, 0.3, rng.split(v));
      ptrs.push_back(&stations.back());
    }

    FaultPlan plan;
    plan.crash_rate = 0.08;
    plan.recover_rate = 0.3;
    plan.epoch_slots = 8;

    RadioNetwork net(g);
    FaultSchedule faults(g, plan, 0xFA + round);
    EventRecorder rec;
    net.set_faults(&faults);
    net.set_trace(&rec);
    net.attach(ptrs);

    // Step manually so the alive view can be snapshotted per slot (the
    // schedule's Markov chains are advanced inside step(), so after step()
    // the state is exactly the one slot t was simulated under).
    const SlotTime kSlots = 400;
    std::vector<std::vector<std::uint8_t>> alive(kSlots);
    std::uint64_t crashed_slot_pairs = 0;
    for (SlotTime t = 0; t < kSlots; ++t) {
      net.step();
      alive[t].resize(g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        alive[t][v] = faults.node_alive(v) ? 1 : 0;
        crashed_slot_pairs += alive[t][v] ? 0 : 1;
      }
    }
    ASSERT_FALSE(rec.truncated());

    std::uint64_t events_on_crashed = 0;
    for (const auto& e : rec.events()) {
      if (e.kind != EventRecorder::Kind::kTransmit &&
          e.kind != EventRecorder::Kind::kDeliver &&
          e.kind != EventRecorder::Kind::kCollision)
        continue;
      if (!alive[e.slot][e.node]) ++events_on_crashed;
    }
    EXPECT_EQ(events_on_crashed, 0u) << "round " << round;
    EXPECT_EQ(net.metrics().fault_crashed_slots, crashed_slot_pairs);
    // The plan must actually have bitten, or the round proves nothing.
    EXPECT_GT(crashed_slot_pairs, 0u) << "round " << round << " was vacuous";

    // Crash freezes active-set membership; recovery must find the station
    // runnable again (all-Chatter population: everyone is legacy-active).
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_TRUE(net.station_active(v));
  }
}

/// What a Scripted station does when polled at a slot (tested only when it
/// actually is polled): transmit, call wake(), arm timers, opt out of or
/// back into autosleep.
struct Script {
  std::set<SlotTime> tx, wake, opt_out, opt_in;
  std::map<SlotTime, std::vector<SlotTime>> timers;  // poll slot -> targets
};

/// Autosleep station with a scripted behavior. Records every poll.
class Scripted : public Station {
 public:
  Scripted(NodeId self, Script script)
      : self_(self), script_(std::move(script)) {}

  void on_attach(Waker& w) override {
    waker_ = &w;
    w.set_autosleep(true);
  }
  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    polls.push_back(t);
    if (script_.tx.count(t) != 0) {
      Message m;
      m.origin = self_;
      m.seq = static_cast<std::uint32_t>(t);
      tx[0] = m;
    }
    if (script_.wake.count(t) != 0) waker_->wake();
    const auto armed = script_.timers.find(t);
    if (armed != script_.timers.end())
      for (const SlotTime at : armed->second) waker_->wake_at(at);
    if (script_.opt_out.count(t) != 0) waker_->set_autosleep(false);
    if (script_.opt_in.count(t) != 0) waker_->set_autosleep(true);
  }
  void on_receive(SlotTime, ChannelId, const Message&) override {}

  std::vector<SlotTime> polls;

 private:
  NodeId self_;
  Script script_;
  Waker* waker_ = nullptr;
};

TEST(EngineInvariants, ActiveSetMembershipIsIntentOrWakeExactly) {
  // Randomized scripts on a path graph; the test predicts the poll
  // schedule of every station with an independent model of the contract:
  //   polled at 0 (everyone starts active); polled at t+1 iff polled at t
  //   and (transmitted at t, woke at t, or armed a timer for a slot
  //   <= t+1 at t), or an external wake arrived during slot t, or a timer
  //   armed earlier targets t+1.
  Rng rng(0x5C21);
  const SlotTime kSlots = 120;
  for (int round = 0; round < 10; ++round) {
    const Graph g = gen::path(24);
    std::deque<Scripted> stations;
    std::vector<Station*> ptrs;
    std::vector<Script> script_of(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      Script sc;
      for (SlotTime t = 0; t < kSlots; ++t) {
        if (rng.bernoulli(0.25)) sc.tx.insert(t);
        if (rng.bernoulli(0.15)) sc.wake.insert(t);
        // Timers from two slots in the past to a dozen ahead, sometimes
        // two at once (duplicates included).
        while (rng.bernoulli(0.2)) {
          const SlotTime d = rng.next_below(15);
          sc.timers[t].push_back(t + d >= 2 ? t + d - 2 : 0);
        }
      }
      script_of[v] = sc;
      stations.emplace_back(v, sc);
      ptrs.push_back(&stations.back());
    }
    // A few driver-level wakes, exercising wake_station between slots.
    std::vector<std::pair<SlotTime, NodeId>> driver_wakes;
    for (int i = 0; i < 6; ++i)
      driver_wakes.emplace_back(rng.next_below(kSlots),
                                static_cast<NodeId>(
                                    rng.next_below(g.num_nodes())));
    std::sort(driver_wakes.begin(), driver_wakes.end());

    RadioNetwork net(g);
    net.attach(ptrs);

    // Independent prediction: polled at t iff active at t; retained after
    // slot t iff it transmitted, self-woke, or armed a timer that is not
    // in the future at t; active at t+1 = retained union driver wakes
    // delivered between t and t+1 union timers due at t+1. (Pending
    // driver wakes and due timers are admitted at the next begin_slot, so
    // station_active right after step(t) reflects `retained` only.)
    std::vector<std::vector<SlotTime>> expected(g.num_nodes());
    std::vector<std::vector<std::uint8_t>> retained_at(kSlots);
    {
      std::vector<std::uint8_t> active(g.num_nodes(), 1);
      std::vector<std::set<SlotTime>> due(g.num_nodes());
      for (SlotTime t = 0; t < kSlots; ++t) {
        retained_at[t].assign(g.num_nodes(), 0);
        std::vector<std::uint8_t> next(g.num_nodes(), 0);
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          if (!active[v]) continue;
          expected[v].push_back(t);
          const Script& sc = script_of[v];
          bool keep = sc.tx.count(t) != 0 || sc.wake.count(t) != 0;
          const auto armed = sc.timers.find(t);
          if (armed != sc.timers.end()) {
            for (const SlotTime at : armed->second) {
              if (at <= t + 1) {
                keep = true;
              } else {
                due[v].insert(at);
              }
            }
          }
          if (keep) {
            retained_at[t][v] = 1;
            next[v] = 1;
          }
        }
        for (const auto& [wt, wv] : driver_wakes)
          if (wt == t) next[wv] = 1;  // arrives between slot t and t+1
        for (NodeId v = 0; v < g.num_nodes(); ++v)
          if (due[v].count(t + 1) != 0) next[v] = 1;
        active = std::move(next);
      }
    }

    for (SlotTime t = 0; t < kSlots; ++t) {
      net.step();
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        EXPECT_EQ(net.station_active(v),
                  retained_at[t][v] != 0)
            << "round " << round << " node " << v << " after slot " << t;
      for (const auto& [wt, wv] : driver_wakes)
        if (wt == t) net.wake_station(wv);
    }

    std::uint64_t total_polls = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(stations[v].polls, expected[v])
          << "round " << round << " node " << v;
      total_polls += stations[v].polls.size();
    }
    EXPECT_EQ(net.engine_stats().station_polls, total_polls);
    EXPECT_LE(net.engine_stats().peak_active,
              static_cast<std::uint64_t>(g.num_nodes()));
    EXPECT_GT(net.engine_stats().peak_active, 0u);
    // Autosleep everywhere: the engine must actually have slept somebody.
    EXPECT_LT(total_polls,
              static_cast<std::uint64_t>(g.num_nodes()) * kSlots);
  }
}

// ---------------------------------------------------------------------------
// Timed wakes (Waker::wake_at), case by case.
// ---------------------------------------------------------------------------

/// Drives an ActiveSet by hand: every station autosleeps and never
/// transmits, so membership is exactly what wakes and timers grant.
struct HandDriven {
  ActiveSet set;
  std::vector<std::uint8_t> keep;
  SlotTime now = 0;

  explicit HandDriven(NodeId n) : keep(n, 0) {
    set.reset(n);
    for (NodeId v = 0; v < n; ++v) set.set_autosleep(v, true);
    slot();  // everyone starts active; after slot 0 everyone sleeps
  }
  /// Opens slot `now`, returns its members, and closes it.
  std::vector<NodeId> slot() {
    set.begin_slot(now);
    std::vector<NodeId> members(set.active().begin(), set.active().end());
    set.end_slot(keep.data());
    ++now;
    return members;
  }
  /// The slots in [now, until) at which `v` is a member.
  std::vector<SlotTime> member_slots(NodeId v, SlotTime until) {
    std::vector<SlotTime> at;
    while (now < until) {
      const SlotTime t = now;
      for (const NodeId m : slot())
        if (m == v) at.push_back(t);
    }
    return at;
  }
};

TEST(TimedWake, SlotNotInTheFutureWakesForTheNextSlot) {
  HandDriven d(3);
  ASSERT_EQ(d.now, 1u);
  // Between slots 0 and 1: a past slot and the next slot both mean "1".
  d.set.wake_at(0, 0);
  d.set.wake_at(1, 1);
  EXPECT_EQ(d.slot(), (std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(d.slot().empty());  // one wake buys one poll
  // During slot 3, for members polled in it: arming slot 3 or 4 retains
  // the station for slot 4 (membership, not just a pending admission).
  d.set.wake(1);
  d.set.wake(2);
  d.set.begin_slot(3);
  ASSERT_EQ(std::vector<NodeId>(d.set.active().begin(), d.set.active().end()),
            (std::vector<NodeId>{1, 2}));
  d.set.wake_at(2, 3);
  d.set.wake_at(1, 4);
  d.set.end_slot(d.keep.data());
  d.now = 4;
  EXPECT_TRUE(d.set.contains(1));
  EXPECT_TRUE(d.set.contains(2));
  EXPECT_EQ(d.slot(), (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(d.slot().empty());
}

TEST(TimedWake, DuplicateAndReArmedTimersAllFire) {
  HandDriven d(3);
  d.set.wake_at(0, 10);
  d.set.wake_at(0, 10);  // duplicate: one poll
  d.set.wake_at(1, 20);
  d.set.wake_at(1, 15);  // earlier re-arm: the later timer still fires
  d.set.wake_at(2, 12);
  d.set.wake_at(2, 18);  // later re-arm: the earlier timer still fires
  HandDriven copy = d;
  EXPECT_EQ(d.member_slots(0, 30), (std::vector<SlotTime>{10}));
  d = copy;
  EXPECT_EQ(d.member_slots(1, 30), (std::vector<SlotTime>{15, 20}));
  d = copy;
  EXPECT_EQ(d.member_slots(2, 30), (std::vector<SlotTime>{12, 18}));
}

TEST(TimedWake, UnattachedHandleIsANoOp) {
  // The frozen reference engine never calls on_attach, so a station's
  // Waker there stays default-constructed; every call must be inert.
  Waker w;
  EXPECT_FALSE(w.attached());
  w.wake_at(5);
  w.wake_at(0);
  w.wake();
  w.set_autosleep(true);
  EXPECT_FALSE(w.attached());
}

TEST(TimedWake, TimerDueWhileCrashedAdmitsTheStationFrozen) {
  // Every node crashes at slot 8 and recovers at slot 16. Node 0's timer
  // falls due while it is down: it is polled at recovery, not before.
  // Node 1's timer fires before the crash, node 2's after recovery; both
  // are polled exactly at their timers.
  const Graph g = gen::path(3);
  std::deque<Scripted> stations;
  std::vector<Station*> ptrs;
  const std::vector<SlotTime> target = {12, 6, 20};
  for (NodeId v = 0; v < 3; ++v) {
    Script sc;
    sc.timers[0] = {target[v]};
    stations.emplace_back(v, sc);
    ptrs.push_back(&stations.back());
  }
  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.recover_rate = 1.0;
  plan.epoch_slots = 8;
  plan.window_start = 8;
  plan.window_end = 9;
  FaultSchedule faults(g, plan, 1);
  RadioNetwork net(g);
  net.set_faults(&faults);
  net.attach(ptrs);
  for (SlotTime t = 0; t < 30; ++t) {
    net.step();
    const bool down = t >= 8 && t < 16;
    for (NodeId v = 0; v < 3; ++v)
      ASSERT_EQ(faults.node_alive(v), !down) << "slot " << t;
  }
  EXPECT_EQ(stations[0].polls, (std::vector<SlotTime>{0, 16}));
  EXPECT_EQ(stations[1].polls, (std::vector<SlotTime>{0, 6}));
  EXPECT_EQ(stations[2].polls, (std::vector<SlotTime>{0, 20}));
}

TEST(TimedWake, OptingOutWithATimerPendingStaysPinned) {
  // Opting out pins the station active; its pending timer then fires as a
  // harmless wake of an active station. Opting back in lets it sleep.
  const Graph g = gen::path(2);
  Script sc;
  sc.timers[0] = {10};
  sc.opt_out = {0};
  sc.opt_in = {15};
  std::deque<Scripted> stations;
  stations.emplace_back(0, sc);
  stations.emplace_back(1, Script{});
  RadioNetwork net(g);
  net.attach({&stations[0], &stations[1]});
  net.run(30);
  std::vector<SlotTime> every;
  for (SlotTime t = 0; t <= 15; ++t) every.push_back(t);
  EXPECT_EQ(stations[0].polls, every);
  EXPECT_EQ(stations[1].polls, (std::vector<SlotTime>{0}));
}

TEST(EngineInvariants, EpochStampedCellsNeverLeakAcrossSlots) {
  // A single transmitter fires exactly once; with epoch-stamped rx cells a
  // stale-state bug would re-deliver (or re-collide) in later slots. Run
  // long after the burst and demand total silence.
  class OneShot : public Station {
   public:
    explicit OneShot(NodeId self) : self_(self) {}
    void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
      if (t == 3 && self_ == 0) {  // only the hub fires
        Message m;
        m.origin = self_;
        m.seq = 77;
        tx[0] = m;
      }
    }
    void on_receive(SlotTime t, ChannelId, const Message& m) override {
      deliveries.emplace_back(t, m.seq);
    }
    std::vector<std::pair<SlotTime, std::uint32_t>> deliveries;

   private:
    NodeId self_;
  };

  const Graph g = gen::star(12);
  std::deque<OneShot> stations;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    stations.emplace_back(v);
    ptrs.push_back(&stations.back());
  }
  RadioNetwork net(g);
  net.attach(ptrs);
  net.run(500);

  // The hub (node 0) transmitted once at slot 3; every leaf hears exactly
  // that, leaves' own slot-3 transmissions collide at the hub only.
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    ASSERT_EQ(stations[v].deliveries.size(), 1u) << "leaf " << v;
    EXPECT_EQ(stations[v].deliveries[0],
              (std::pair<SlotTime, std::uint32_t>{3, 77}));
  }
  EXPECT_TRUE(stations[0].deliveries.empty());
  EXPECT_EQ(net.metrics().slots, 500u);
}

}  // namespace
}  // namespace radiomc
