#include "protocols/bgi_broadcast.h"

#include <deque>
#include <memory>

#include "protocols/instruments.h"
#include "radio/network.h"
#include "support/util.h"

namespace radiomc {

FloodStation::FloodStation(std::uint32_t decay_len, std::uint32_t phase_quota,
                           Rng rng, bool autosleep)
    : decay_len_(decay_len),
      quota_(phase_quota),
      rng_(rng),
      decay_(decay_len),
      autosleep_(autosleep) {}

void FloodStation::on_attach(Waker& w) {
  if (!autosleep_) return;  // legacy contract: permanently active
  waker_ = &w;
  w.set_autosleep(true);
}

void FloodStation::seed(const Message& m) {
  informed_ = true;
  informed_at_ = 0;
  msg_ = m;
  if (waker_ != nullptr) waker_->wake();
}

void FloodStation::reset(Rng rng, SlotTime base) {
  rng_ = rng;
  base_ = base;
  informed_ = false;
  informed_at_ = 0;
  msg_ = Message{};
  decay_.stop();
  attempt_phase_ = kUnset;
  end_phase_ = kUnset;
  just_transmitted_ = false;
}

std::optional<Message> FloodStation::poll(SlotTime t) {
  // An uninformed poll is a pure no-op, so an uninformed station may sleep
  // until the front's delivery wakes it.
  if (!informed_) return std::nullopt;
  const std::uint64_t phase = t / decay_len_;
  if (end_phase_ == kUnset) {
    // First poll since being informed (the slot after the reception, or
    // the source's first slot): a phase begun before this slot is partial
    // and runs as an extra, so the k whole phases start after it.
    const std::uint64_t first_whole = t % decay_len_ == 0 ? phase : phase + 1;
    end_phase_ = first_whole + quota_;
  }
  // Quota spent: silent for good, with no state change, no draw and no
  // re-wake, so the engine may stop polling.
  if (phase >= end_phase_) return std::nullopt;
  if (phase != attempt_phase_) {
    attempt_phase_ = phase;
    decay_.start();
  }
  if (decay_.wants_transmit()) {
    // A transmission retains the station for the next slot.
    just_transmitted_ = true;
    return msg_;
  }
  // This phase's Decay is over: nothing changes until the next phase
  // starts, so sleep until then if it is still within the quota.
  if (waker_ != nullptr && phase + 1 < end_phase_)
    waker_->wake_at(base_ + (phase + 1) * decay_len_);
  return std::nullopt;
}

void FloodStation::deliver(SlotTime t, const Message& m) {
  if (informed_) return;
  if (waker_ != nullptr) waker_->wake();
  informed_ = true;
  informed_at_ = t;
  msg_ = m;
  // Joins the flood at its next poll, in the next slot: a Decay starts
  // there at once, in the rest of this phase if the reception was not in
  // the phase's last slot.
}

void FloodStation::tick(SlotTime) {
  if (just_transmitted_) {
    decay_.after_transmit(rng_);
    just_transmitted_ = false;
  }
}

BgiOutcome run_bgi_broadcast(const Graph& g, NodeId source,
                             std::uint64_t phases, std::uint64_t seed,
                             const FaultPlan& faults, bool autosleep) {
  const NodeId n = g.num_nodes();
  require(source < n, "run_bgi_broadcast: source out of range");
  const std::uint32_t dl = decay_length(g.max_degree());

  Rng master(seed);
  std::vector<std::unique_ptr<FloodStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    stations.push_back(std::make_unique<FloodStation>(
        dl, bgi_phase_quota(n), master.split(v), autosleep));
  Message m;
  m.kind = MsgKind::kBcastData;
  m.origin = source;
  m.dest = kAllNodes;
  stations[source]->seed(m);

  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : stations) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);

  RadioNetwork net(g);
  Instruments in;
  in.faults = faults;
  const NetworkWiring wiring(net, g, std::move(ptrs), in, master);
  net.run(phases * dl);

  BgiOutcome out;
  out.slots = net.now();
  out.engine_polls = net.engine_stats().station_polls;
  out.informed.resize(n);
  out.informed_at.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    out.informed[v] = stations[v]->informed();
    out.informed_at[v] = stations[v]->informed_at();
    if (out.informed[v]) ++out.informed_count;
  }
  return out;
}

}  // namespace radiomc
