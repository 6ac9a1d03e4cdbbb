#include "protocols/collection.h"

#include <algorithm>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

namespace {

bool is_upbound_kind(MsgKind k) {
  switch (k) {
    case MsgKind::kData:
    case MsgKind::kNack:
    case MsgKind::kSetupReport:
      return true;
    case MsgKind::kAck:
    case MsgKind::kLeader:
    case MsgKind::kBfsAnnounce:
    case MsgKind::kDfsToken:
    case MsgKind::kBcastData:
      return false;
  }
  return false;
}

}  // namespace

CollectionStation::CollectionStation(NodeId me, const BfsTree& tree,
                                     CollectionConfig cfg, Rng rng)
    : CollectionStation(me, cfg, rng) {
  set_local(tree.parent[me], tree.level[me], me == tree.root);
}

CollectionStation::CollectionStation(NodeId me, CollectionConfig cfg, Rng rng)
    : me_(me),
      clock_(cfg.slots),
      rng_(rng),
      decay_(cfg.slots.decay_len),
      dedup_guard_(cfg.dedup_guard),
      autosleep_(cfg.autosleep) {}

void CollectionStation::on_attach(Waker& w) {
  if (!autosleep_) return;  // legacy contract: permanently active
  waker_ = &w;
  w.set_autosleep(true);
}

void CollectionStation::set_local(NodeId parent, std::uint32_t level,
                                  bool is_root) {
  parent_ = parent;
  level_ = level;
  is_root_ = is_root;
  bound_ = true;
  if (waker_ != nullptr) waker_->wake();
}

void CollectionStation::reset(Rng rng) {
  rng_ = rng;
  parent_ = kNoNode;
  level_ = 0;
  is_root_ = false;
  bound_ = false;
  buffer_.clear();
  decay_.stop();
  attempt_phase_ = static_cast<std::uint64_t>(-1);
  attempt_done_ = false;
  just_transmitted_ = false;
  ack_to_send_.reset();
  sink_.clear();
  accept_log_.clear();
  seen_.clear();
}

std::optional<Message> CollectionStation::poll(SlotTime t) {
  if (!bound_) return std::nullopt;
  // Autosleep duty check: stay scheduled while there is anything left to
  // send (a buffered message mid-drain or a pending ack), even in slots
  // where the phase clock or the Decay coin keeps us silent. With neither,
  // this poll is a pure no-op and the engine may deschedule us until
  // deliver/inject wakes the station.
  if (waker_ != nullptr && (ack_to_send_.has_value() ||
                            (!is_root_ && !buffer_.empty())))
    waker_->wake();
  const PhaseClock::SlotInfo info = clock_.decode(t);

  if (info.is_ack) {
    if (ack_to_send_) {
      Message ack = *ack_to_send_;
      ack_to_send_.reset();
      return ack;
    }
    return std::nullopt;
  }

  // Data subslot.
  if (is_root_ || buffer_.empty()) return std::nullopt;
  if (!clock_.level_may_send_data(info, level_)) return std::nullopt;

  if (info.phase != attempt_phase_) {
    // First transmission opportunity of this phase with a nonempty buffer:
    // begin one Decay invocation for the head message (§4.1: one message
    // per node per phase).
    attempt_phase_ = info.phase;
    attempt_done_ = false;
    decay_.start();
  }
  if (attempt_done_ || !decay_.wants_transmit()) return std::nullopt;

  Message m = buffer_.front();
  m.sender = me_;
  m.sender_parent = parent_;  // §4: appended so receivers can classify
  just_transmitted_ = true;
  return m;
}

void CollectionStation::deliver(SlotTime t, const Message& m) {
  if (!bound_) return;
  // Any reception may create a duty (an ack to emit, a message to relay),
  // and deliveries reach sleeping stations too — wake unconditionally; the
  // next poll re-evaluates and lets the engine park us again if not.
  if (waker_ != nullptr) waker_->wake();
  const PhaseClock::SlotInfo info = clock_.decode(t);

  if (info.is_ack) {
    if (m.kind != MsgKind::kAck || m.dest != me_) return;
    if (buffer_.empty()) return;
    const Message& head = buffer_.front();
    if (m.origin == head.origin && m.seq == head.seq) {
      // Our parent has the message; it now lives on exactly one buffer.
      buffer_.pop_front();
      decay_.stop();
      attempt_done_ = true;
    }
    return;
  }

  // Data subslot: accept only messages from our BFS children (§4).
  if (!is_upbound_kind(m.kind) || m.sender_parent != me_) return;

  Message ack;
  ack.kind = MsgKind::kAck;
  ack.dest = m.sender;
  ack.origin = m.origin;
  ack.seq = m.seq;
  ack_to_send_ = ack;

  if (dedup_guard_) {
    // Remark 3 mode: a lost ack makes the child retransmit; acknowledge
    // the duplicate again (or it retries forever) but deliver it once.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(m.origin) << 32) | m.seq;
    if (!seen_.insert(key).second) return;
  }

  if (record_accepts_) accept_log_.emplace_back(info.phase, level_ + 1);

  if (is_root_) {
    sink_.push_back({t, m});
    if (root_handler_) root_handler_(t, m);
  } else {
    buffer_.push_back(m);
  }
}

void CollectionStation::tick(SlotTime) {
  if (just_transmitted_) {
    decay_.after_transmit(rng_);
    just_transmitted_ = false;
  }
}

void CollectionStation::inject(const Message& m) {
  require(m.origin == me_, "CollectionStation::inject: origin must be self");
  if (waker_ != nullptr) waker_->wake();
  if (is_root_) {
    sink_.push_back({0, m});
    if (root_handler_) root_handler_(0, m);
    return;
  }
  buffer_.push_back(m);
}

CollectionOutcome run_collection(const Graph& g, const BfsTree& tree,
                                 std::vector<Message> initial,
                                 const CollectionConfig& cfg,
                                 std::uint64_t seed, SlotTime max_slots) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "run_collection: tree/graph size mismatch");

  Rng master(seed);
  std::vector<std::unique_ptr<CollectionStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    stations.push_back(std::make_unique<CollectionStation>(
        v, tree, cfg, master.split(v)));
    stations.back()->record_accepts(true);
  }
  const std::size_t expected = initial.size();
  for (const Message& m : initial) {
    require(m.origin < n, "run_collection: origin out of range");
    stations[m.origin]->inject(m);
  }

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);

  RadioNetwork net(g);
  const NetworkWiring wiring(net, g, std::move(ptrs), cfg, master);

  CollectionOutcome out;
  const std::uint64_t slots_per_phase = stations[0]->clock().slots_per_phase();
  out.occupied_phases.assign(tree.depth + 1, 0);
  out.advance_phases.assign(tree.depth + 1, 0);

  // Messages counted into occupancy at the phase boundary; advances read
  // from the accept logs afterwards and conditioned on start-of-phase
  // occupancy, matching Theorem 4.1's hypothesis ("a level containing
  // messages at the beginning of a phase").
  std::vector<bool> occupied_now(tree.depth + 1, false);
  std::vector<std::uint64_t> depth_now(tree.depth + 1, 0);
  std::vector<std::vector<std::uint64_t>> occupied_list(tree.depth + 1);
  auto snapshot_occupancy = [&](std::uint64_t phase) {
    std::fill(occupied_now.begin(), occupied_now.end(), false);
    std::fill(depth_now.begin(), depth_now.end(), 0);
    for (NodeId v = 0; v < n; ++v)
      if (stations[v]->buffer_size() > 0) {
        occupied_now[tree.level[v]] = true;
        depth_now[tree.level[v]] += stations[v]->buffer_size();
      }
    for (std::uint32_t l = 1; l <= tree.depth; ++l)
      if (occupied_now[l]) {
        ++out.occupied_phases[l];
        occupied_list[l].push_back(phase);
      }
    if (cfg.telemetry != nullptr) {
      // Start-of-phase queued messages per BFS level: the measured
      // occupancy to set against model 4's tandem-queue prediction
      // (src/queueing/), one histogram per level.
      for (std::uint32_t l = 1; l <= tree.depth; ++l)
        cfg.telemetry->metrics
            .distribution("collection.queue_depth",
                          {{"level", std::to_string(l)}})
            .add(static_cast<std::int64_t>(depth_now[l]));
    }
  };

  const CollectionStation* root = stations[tree.root].get();
  std::size_t progress_count = root->root_sink().size();
  SlotTime progress_slot = 0;
  bool stalled = false;
  {
    perf::PerfSpan drain_span(cfg.profiler, "collection.drain");
    while (root->root_sink().size() < expected && net.now() < max_slots) {
      if (net.now() % slots_per_phase == 0)
        snapshot_occupancy(net.now() / slots_per_phase);
      net.step();
      if (cfg.stall_slots > 0) {
        if (root->root_sink().size() > progress_count) {
          progress_count = root->root_sink().size();
          progress_slot = net.now();
        } else if (net.now() - progress_slot >= cfg.stall_slots) {
          stalled = true;
          break;
        }
      }
    }
  }
  out.completed = root->root_sink().size() >= expected;
  out.status = out.completed ? RunStatus::kOk
               : stalled    ? RunStatus::kDegraded
                            : RunStatus::kFailed;
  out.slots = net.now();
  out.phases = (net.now() + slots_per_phase - 1) / slots_per_phase;
  out.deliveries = root->root_sink();
  out.engine_polls = net.engine_stats().station_polls;

  // An "advance of level i in phase p" = some level-(i-1) node accepted a
  // message from a level-i child during p. Count each (level, phase) once,
  // and only when level i held messages at the start of p.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> events;
  for (NodeId v = 0; v < n; ++v)
    for (auto [phase, from_level] : stations[v]->accept_log())
      if (from_level <= tree.depth) events.emplace_back(from_level, phase);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  for (auto [from_level, phase] : events) {
    const auto& occ = occupied_list[from_level];
    if (std::binary_search(occ.begin(), occ.end(), phase))
      ++out.advance_phases[from_level];
  }

  if (cfg.profiler != nullptr) {
    cfg.profiler->count("collection.slots", out.slots);
    cfg.profiler->count("collection.phases", out.phases);
    cfg.profiler->count("collection.delivered", out.deliveries.size());
  }

  if (cfg.telemetry != nullptr) {
    telemetry::Telemetry& tel = *cfg.telemetry;
    tel.timeline.record(
        "collection", "drain", 0, out.slots,
        {{"k", static_cast<std::int64_t>(expected)},
         {"phases", static_cast<std::int64_t>(out.phases)},
         {"depth", static_cast<std::int64_t>(tree.depth)},
         {"completed", out.completed ? 1 : 0}});
    tel.metrics.counter("collection.messages_delivered")
        .inc(out.deliveries.size());
    tel.metrics.counter("collection.phases").inc(out.phases);
    // Theorem 4.1's per-level event counts: phases a level was occupied at
    // the start, and among those, phases it advanced a message upward.
    for (std::uint32_t l = 1; l <= tree.depth; ++l) {
      const telemetry::Labels lv = {{"level", std::to_string(l)}};
      tel.metrics.counter("collection.occupied_phases", lv)
          .inc(out.occupied_phases[l]);
      tel.metrics.counter("collection.advance_phases", lv)
          .inc(out.advance_phases[l]);
    }
    wiring.publish("collection");
    wiring.record_fault_span("collection", out.slots, out.status);
  }
  return out;
}

}  // namespace radiomc
