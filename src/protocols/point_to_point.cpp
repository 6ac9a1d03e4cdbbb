#include "protocols/point_to_point.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

// ---------------------------------------------------------------------------
// Upward subprotocol
// ---------------------------------------------------------------------------

P2pUpStation::P2pUpStation(NodeId me, const RoutingInfo& info, P2pConfig cfg,
                           Rng rng)
    : me_(me),
      info_(info),
      clock_(cfg.slots),
      rng_(rng),
      autosleep_(cfg.autosleep),
      decay_(cfg.slots.decay_len) {}

void P2pUpStation::on_attach(Waker& w) {
  if (!autosleep_) return;  // legacy contract: permanently active
  waker_ = &w;
  w.set_autosleep(true);
}

std::uint32_t P2pUpStation::send(std::uint32_t dest_addr,
                                 std::uint64_t payload) {
  Message m;
  m.kind = MsgKind::kData;
  m.origin = me_;
  m.dest = dest_addr;  // p2p addresses are DFS numbers
  m.payload = payload;
  m.seq = next_seq_++;
  route(0, m);
  if (waker_ != nullptr) waker_->wake();  // fresh duty for a sleeping node
  return m.seq;
}

void P2pUpStation::route(SlotTime t, const Message& m) {
  if (m.dest == info_.number) {
    sink_.push_back({t, m});  // addressed to this node
  } else if (info_.subtree_contains(m.dest)) {
    require(down_ != nullptr, "P2pUpStation: downward half not wired");
    down_->enqueue(m);  // LCA reached: turn downwards (§5.2)
  } else {
    buffer_.push_back(m);  // keep climbing
  }
}

std::optional<Message> P2pUpStation::poll(SlotTime t) {
  // Autosleep duty check (collection's pattern): stay awake while an ack
  // is owed or buffered traffic can still climb (a rootward buffer with no
  // parent never drains — same dead end as always-active, minus the polls).
  if (waker_ != nullptr &&
      (ack_to_send_ || (!buffer_.empty() && info_.parent != kNoNode)))
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
  if (buffer_.empty() || info_.parent == kNoNode) return std::nullopt;
  if (!clock_.level_may_send_data(info, info_.level)) return std::nullopt;

  if (info.phase != attempt_phase_) {
    attempt_phase_ = info.phase;
    attempt_done_ = false;
    decay_.start();
  }
  if (attempt_done_ || !decay_.wants_transmit()) return std::nullopt;

  Message m = buffer_.front();
  m.sender = me_;
  m.sender_parent = info_.parent;
  just_transmitted_ = true;
  return m;
}

void P2pUpStation::deliver(SlotTime t, const Message& m) {
  // Receptions reach sleeping stations; any of them may create duty (an
  // ack popping the buffer head, data owing an ack). Wake unconditionally
  // and let the next poll's duty check re-evaluate.
  if (waker_ != nullptr) waker_->wake();
  const PhaseClock::SlotInfo info = clock_.decode(t);

  if (info.is_ack) {
    if (m.kind != MsgKind::kAck || m.dest != me_ || buffer_.empty()) return;
    const Message& head = buffer_.front();
    if (m.origin == head.origin && m.seq == head.seq) {
      buffer_.pop_front();
      decay_.stop();
      attempt_done_ = true;
    }
    return;
  }

  // Data subslot: accept only from our own BFS children (§4 tagging).
  if (m.kind != MsgKind::kData || m.sender_parent != me_) return;

  Message ack;
  ack.kind = MsgKind::kAck;
  ack.dest = m.sender;
  ack.origin = m.origin;
  ack.seq = m.seq;
  ack_to_send_ = ack;

  route(t, m);
}

void P2pUpStation::tick(SlotTime) {
  if (just_transmitted_) {
    decay_.after_transmit(rng_);
    just_transmitted_ = false;
  }
}

// ---------------------------------------------------------------------------
// Downward subprotocol
// ---------------------------------------------------------------------------

P2pDownStation::P2pDownStation(NodeId me, const RoutingInfo& info,
                               P2pConfig cfg, Rng rng)
    : me_(me),
      info_(info),
      clock_(cfg.slots),
      rng_(rng),
      autosleep_(cfg.autosleep),
      decay_(cfg.slots.decay_len) {}

void P2pDownStation::on_attach(Waker& w) {
  if (!autosleep_) return;  // legacy contract: permanently active
  waker_ = &w;
  w.set_autosleep(true);
}

std::optional<Message> P2pDownStation::poll(SlotTime t) {
  // Autosleep duty check: an owed ack or buffered descent is future work.
  if (waker_ != nullptr && (ack_to_send_ || !buffer_.empty()))
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
  if (buffer_.empty()) return std::nullopt;
  if (!clock_.level_may_send_data(info, info_.level)) return std::nullopt;

  if (info.phase != attempt_phase_) {
    attempt_phase_ = info.phase;
    attempt_done_ = false;
    decay_.start();
  }
  if (attempt_done_ || !decay_.wants_transmit()) return std::nullopt;

  Message m = buffer_.front();
  m.sender = me_;
  m.sender_parent = info_.parent;
  just_transmitted_ = true;
  return m;
}

void P2pDownStation::deliver(SlotTime t, const Message& m) {
  if (waker_ != nullptr) waker_->wake();  // see P2pUpStation::deliver
  const PhaseClock::SlotInfo info = clock_.decode(t);

  if (info.is_ack) {
    if (m.kind != MsgKind::kAck || m.dest != me_ || buffer_.empty()) return;
    const Message& head = buffer_.front();
    if (m.origin == head.origin && m.seq == head.seq) {
      buffer_.pop_front();
      decay_.stop();
      attempt_done_ = true;
    }
    return;
  }

  // Data subslot (§5.3): "a node w receiving a message designated to u
  // processes it only if u is a BFS-tree descendant of w". The appended
  // sender id additionally tells us the message moves downwards (it comes
  // from our BFS parent), not from one of our own children.
  if (m.kind != MsgKind::kData) return;
  if (m.sender != info_.parent) return;
  if (!info_.subtree_contains(m.dest)) return;

  Message ack;
  ack.kind = MsgKind::kAck;
  ack.dest = m.sender;
  ack.origin = m.origin;
  ack.seq = m.seq;
  ack_to_send_ = ack;

  if (m.dest == info_.number) {
    sink_.push_back({t, m});  // final delivery
  } else {
    buffer_.push_back(m);
  }
}

void P2pDownStation::tick(SlotTime) {
  if (just_transmitted_) {
    decay_.after_transmit(rng_);
    just_transmitted_ = false;
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

P2pOutcome run_point_to_point(const Graph& g, const PreparationResult& prep,
                              const std::vector<P2pRequest>& requests,
                              const P2pConfig& cfg, std::uint64_t seed,
                              SlotTime max_slots) {
  const NodeId n = g.num_nodes();
  require(prep.routing.size() == n, "run_point_to_point: bad preparation");

  Rng master(seed);
  std::vector<std::unique_ptr<P2pUpStation>> ups;
  std::vector<std::unique_ptr<P2pDownStation>> downs;
  ups.reserve(n);
  downs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    ups.push_back(std::make_unique<P2pUpStation>(v, prep.routing[v], cfg,
                                                 master.split(2 * v)));
    downs.push_back(std::make_unique<P2pDownStation>(v, prep.routing[v], cfg,
                                                     master.split(2 * v + 1)));
    ups.back()->set_down(downs.back().get());
  }

  // Inject the requests; remember (origin, seq) -> request index so the
  // driver can time each delivery. The request set is fixed up front, so a
  // sorted vector gives deterministic, allocation-free lookups.
  std::vector<std::pair<std::uint64_t, std::size_t>> tag_to_request;
  tag_to_request.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const P2pRequest& r = requests[i];
    require(r.src < n && r.dst < n, "run_point_to_point: bad request");
    const std::uint32_t addr = prep.labels.number[r.dst];
    const std::uint32_t seq = ups[r.src]->send(addr, r.payload);
    tag_to_request.emplace_back(
        (static_cast<std::uint64_t>(r.src) << 32) | seq, i);
  }
  std::sort(tag_to_request.begin(), tag_to_request.end());
  const auto find_request =
      [&tag_to_request](std::uint64_t tag) -> const std::size_t* {
    const auto it = std::lower_bound(
        tag_to_request.begin(), tag_to_request.end(), tag,
        [](const auto& e, std::uint64_t t) { return e.first < t; });
    return it != tag_to_request.end() && it->first == tag ? &it->second
                                                          : nullptr;
  };

  std::deque<ChannelMuxStation> muxes;
  std::vector<Station*> ptrs;
  for (NodeId v = 0; v < n; ++v)
    muxes.emplace_back(std::vector<SubStation*>{ups[v].get(), downs[v].get()},
                       cfg.autosleep);
  for (auto& m : muxes) ptrs.push_back(&m);

  RadioNetwork::Config ncfg;
  ncfg.num_channels = 2;
  RadioNetwork net(g, ncfg);
  const NetworkWiring wiring(net, g, std::move(ptrs), cfg, master);

  P2pOutcome out;
  out.delivery_slot.assign(requests.size(), static_cast<SlotTime>(-1));
  std::uint64_t delivered = 0;
  std::vector<std::size_t> up_seen(n, 0), down_seen(n, 0);
  auto harvest = [&](SlotTime) {
    for (NodeId v = 0; v < n; ++v) {
      const auto& su = ups[v]->sink();
      for (; up_seen[v] < su.size(); ++up_seen[v]) {
        const auto& d = su[up_seen[v]];
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(d.msg.origin) << 32) | d.msg.seq;
        if (const std::size_t* req = find_request(tag)) {
          // First copy only: a lost ack (fault injection) makes the sender
          // retransmit an already-delivered message, and the radio level
          // cannot deduplicate that — the end-to-end count must.
          if (out.delivery_slot[*req] == static_cast<SlotTime>(-1)) {
            out.delivery_slot[*req] = d.slot;
            ++delivered;
          }
        }
      }
      const auto& sd = downs[v]->sink();
      for (; down_seen[v] < sd.size(); ++down_seen[v]) {
        const auto& d = sd[down_seen[v]];
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(d.msg.origin) << 32) | d.msg.seq;
        if (const std::size_t* req = find_request(tag)) {
          if (out.delivery_slot[*req] == static_cast<SlotTime>(-1)) {
            out.delivery_slot[*req] = d.slot;
            ++delivered;
          }
        }
      }
    }
  };

  harvest(0);  // self-addressed requests complete instantly
  std::uint64_t progress_count = delivered;
  SlotTime progress_slot = 0;
  bool stalled = false;
  {
    perf::PerfSpan run_span(cfg.profiler, "p2p.run");
    while (delivered < requests.size() && net.now() < max_slots) {
      net.step();
      harvest(net.now());
      if (cfg.stall_slots > 0) {
        if (delivered > progress_count) {
          progress_count = delivered;
          progress_slot = net.now();
        } else if (net.now() - progress_slot >= cfg.stall_slots) {
          stalled = true;
          break;
        }
      }
    }
  }
  if (cfg.profiler != nullptr) {
    cfg.profiler->count("p2p.slots", net.now());
    cfg.profiler->count("p2p.delivered", delivered);
  }
  out.completed = delivered >= requests.size();
  out.status = out.completed ? RunStatus::kOk
               : stalled    ? RunStatus::kDegraded
                            : RunStatus::kFailed;
  out.slots = net.now();
  out.delivered = delivered;
  out.engine_polls = net.engine_stats().station_polls;

  if (cfg.telemetry != nullptr) {
    telemetry::Telemetry& tel = *cfg.telemetry;
    tel.timeline.record(
        "point_to_point", "run", 0, out.slots,
        {{"k", static_cast<std::int64_t>(requests.size())},
         {"delivered", static_cast<std::int64_t>(delivered)},
         {"completed", out.completed ? 1 : 0}});
    tel.metrics.counter("p2p.requests").inc(requests.size());
    tel.metrics.counter("p2p.delivered").inc(delivered);
    telemetry::Distribution& lat = tel.metrics.distribution(
        "p2p.delivery_slot", {}, telemetry::Scale::kLog2);
    for (SlotTime s : out.delivery_slot)
      if (s != static_cast<SlotTime>(-1))
        lat.add(static_cast<std::int64_t>(s));
    wiring.publish("point_to_point");
    wiring.record_fault_span("point_to_point", out.slots, out.status);
  }
  return out;
}

}  // namespace radiomc
