#pragma once

// Point-to-point transmission (§5).
//
// After the preparation step (dfs_numbering.h), every node is addressed by
// its DFS number, and each node knows its own DFS interval [number,
// max_desc] and its children's intervals. A message for address `a` first
// climbs the BFS tree (the upward subprotocol, §5.2 — identical to
// collection) until it reaches the first ancestor whose interval contains
// `a`, then descends (the downward subprotocol, §5.3): each hop the holder
// sends it down, and a receiver processes it only if `a` lies in its own
// subtree — which, by disjointness of sibling subtrees, identifies the
// unique next hop. Both directions use Decay per phase, the deterministic
// acknowledgements of §3, and the mod-3 level gating of §2.2; the two
// directions run concurrently on separate channels (§1.4).
//
// As in the paper, destinations are DFS addresses ("Henceforth, each node
// uses its DFS number as its address"); the id->address directory is held
// by the root and is what the ranking application (§7) distributes.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "protocols/decay.h"
#include "protocols/dfs_numbering.h"
#include "protocols/instruments.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {

/// Instruments: run_point_to_point records a run span with request counts
/// and a delivery-latency histogram, and opens a "p2p.run" perf span.
struct P2pConfig : Instruments {
  SlotStructure slots;  ///< ack + mod-3 on by default

  /// Progress watchdog: when > 0 and no request completes for this many
  /// slots, the driver stops with RunStatus::kDegraded. 0 = off.
  SlotTime stall_slots = 0;

  /// Opt into the active-set engine's autosleep (radio/waker.h): a node
  /// sleeps while neither half owes an ack or holds buffered traffic, and
  /// any reception wakes it. The driver composes both halves under a
  /// coordinated ChannelMuxStation, so the promise is joint. Byte-identical
  /// deliveries either way; the engine_diff A/B test is the proof.
  bool autosleep = true;

  static P2pConfig for_graph(const Graph& g) {
    P2pConfig c;
    c.slots.decay_len = decay_length(g.max_degree());
    return c;
  }
};

class P2pDownStation;

/// Upward subprotocol (§5.2): collection toward the least common ancestor.
class P2pUpStation final : public SubStation {
 public:
  struct Delivery {
    SlotTime slot = 0;
    Message msg;
  };

  P2pUpStation(NodeId me, const RoutingInfo& info, P2pConfig cfg, Rng rng);

  /// Wires the handoff to this node's downward half (LCA turn).
  void set_down(P2pDownStation* down) noexcept { down_ = down; }

  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  /// Originates a transmission to DFS address `dest_addr`. Returns the
  /// per-origin sequence number assigned to it.
  std::uint32_t send(std::uint32_t dest_addr, std::uint64_t payload);

  std::size_t buffer_size() const noexcept { return buffer_.size(); }
  const std::vector<Delivery>& sink() const noexcept { return sink_; }

 private:
  void route(SlotTime t, const Message& m);

  NodeId me_;
  RoutingInfo info_;
  PhaseClock clock_;
  Rng rng_;
  P2pDownStation* down_ = nullptr;
  bool autosleep_;
  Waker* waker_ = nullptr;  ///< set by on_attach iff autosleep_ is on

  std::deque<Message> buffer_;
  DecayProcess decay_;
  std::uint64_t attempt_phase_ = static_cast<std::uint64_t>(-1);
  bool attempt_done_ = false;
  bool just_transmitted_ = false;
  std::optional<Message> ack_to_send_;
  std::uint32_t next_seq_ = 0;
  std::vector<Delivery> sink_;
};

/// Downward subprotocol (§5.3): descent by DFS-interval containment.
class P2pDownStation final : public SubStation {
 public:
  P2pDownStation(NodeId me, const RoutingInfo& info, P2pConfig cfg, Rng rng);

  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  /// LCA handoff from the upward half (or from local origination). Wakes
  /// the station: the handoff happens inside the upward half's deliver,
  /// and the new buffer entry is transmit duty for the *next* poll.
  void enqueue(const Message& m) {
    buffer_.push_back(m);
    if (waker_ != nullptr) waker_->wake();
  }

  std::size_t buffer_size() const noexcept { return buffer_.size(); }
  const std::vector<P2pUpStation::Delivery>& sink() const noexcept {
    return sink_;
  }

 private:
  NodeId me_;
  RoutingInfo info_;
  PhaseClock clock_;
  Rng rng_;
  bool autosleep_;
  Waker* waker_ = nullptr;  ///< set by on_attach iff autosleep_ is on

  std::deque<Message> buffer_;
  DecayProcess decay_;
  std::uint64_t attempt_phase_ = static_cast<std::uint64_t>(-1);
  bool attempt_done_ = false;
  bool just_transmitted_ = false;
  std::optional<Message> ack_to_send_;
  std::vector<P2pUpStation::Delivery> sink_;
};

/// One transmission request for the driver: node `src` sends `payload` to
/// node `dst` (node ids; the driver translates to DFS addresses the way the
/// root's directory would).
struct P2pRequest {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t payload = 0;
};

struct P2pOutcome {
  bool completed = false;
  /// kOk iff completed; kDegraded when the stall watchdog fired;
  /// kFailed when max_slots ran out.
  RunStatus status = RunStatus::kOk;
  SlotTime slots = 0;
  std::uint64_t delivered = 0;
  /// Per request: slot at which it reached its destination (or -1).
  std::vector<SlotTime> delivery_slot;
  /// Engine on_slot invocations — the autosleep payoff metric.
  std::uint64_t engine_polls = 0;
};

/// Runs k point-to-point transmissions injected at slot 0 and measures the
/// completion time (Theorem-4.4-style bound: O((k+D) log Delta)).
P2pOutcome run_point_to_point(const Graph& g, const PreparationResult& prep,
                              const std::vector<P2pRequest>& requests,
                              const P2pConfig& cfg, std::uint64_t seed,
                              SlotTime max_slots = 100'000'000);

}  // namespace radiomc
