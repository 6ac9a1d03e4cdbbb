#pragma once

// The collection protocol (§4): converge-cast of messages from arbitrary
// sources to the root of the BFS tree.
//
// Every node keeps a buffer of unacknowledged messages. The protocol
// proceeds in phases; in each phase a node with a nonempty buffer runs one
// Decay invocation to send its head message to its BFS parent on the data
// subslots, and the interleaved ack subslots carry the deterministic
// acknowledgements of §3. A message is removed from the sender's buffer
// exactly when its parent acknowledged it, so messages live on exactly one
// buffer and climb the tree child -> parent (§4.1).
//
// Messages carry the sender's id and the sender's BFS-parent id (§4); a
// node accepts exactly the messages whose `sender_parent` field names
// itself, i.e. messages from its own BFS children.
//
// Randomness affects only the running time: on the graph spanned by the
// BFS tree the protocol always succeeds (§1.2).

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "protocols/decay.h"
#include "protocols/instruments.h"
#include "protocols/tree.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {

/// Instruments: run_collection records a run span with per-level advance
/// counters and queue-depth histograms, opens a "collection.drain" perf
/// span, and compiles the fault plan against its network. Embedded uses
/// (setup, the broadcast service, the virtual bus) ignore the nested
/// instruments — the host driver wires its own network.
struct CollectionConfig : Instruments {
  SlotStructure slots;  ///< decay_len from Delta; ack + mod-3 on by default

  /// §8 Remark 3: under the capture conflict model an acknowledgement can
  /// be lost (the deterministic Theorem 3.1 argument needs collisions to
  /// be silent), so a sender may retransmit a message its parent already
  /// has. With the guard on, receivers remember accepted (origin, seq)
  /// pairs, re-acknowledge duplicates, and deliver each message once —
  /// the paper's "more complicated, less reliable and slower protocol".
  /// Off by default: the main model needs no duplicate state.
  bool dedup_guard = false;

  /// Opt into the active-set engine's autosleep (radio/waker.h): a station
  /// with an empty buffer and no pending ack is descheduled until a
  /// reception or an inject wakes it. Protocol output is byte-identical
  /// either way — an idle CollectionStation poll mutates nothing and
  /// consumes no randomness (DecayProcess::wants_transmit is const; the
  /// coin is flipped only after an actual transmission) — proven A/B by
  /// tests/engine_diff_test.cpp. Only EngineStats::station_polls differs.
  /// Takes effect only where a host forwards the station's on_attach: a
  /// SingleStation, a coordinated ChannelMuxStation, or the setup station,
  /// which shares its own Waker with its verification collection.
  bool autosleep = true;

  /// Progress watchdog: when > 0 and the root has received nothing for
  /// this many slots, the driver stops with RunStatus::kDegraded instead
  /// of burning the rest of max_slots. 0 = off.
  SlotTime stall_slots = 0;

  static CollectionConfig for_graph(const Graph& g) {
    CollectionConfig c;
    c.slots.decay_len = decay_length(g.max_degree());
    return c;
  }
};

/// Per-node state machine of the collection protocol. Single-channel
/// (SubStation); compose with ChannelMuxStation / TimeDivisionStation to
/// run it next to a distribution pipeline (§1.4).
class CollectionStation final : public SubStation {
 public:
  struct Delivery {
    SlotTime slot = 0;
    Message msg;
  };

  CollectionStation(NodeId me, const BfsTree& tree, CollectionConfig cfg,
                    Rng rng);

  /// Unbound variant for the setup phase: the node's tree position arrives
  /// later, via set_local, when it joins the BFS tree. Until then the
  /// station neither sends nor accepts.
  CollectionStation(NodeId me, CollectionConfig cfg, Rng rng);
  void set_local(NodeId parent, std::uint32_t level, bool is_root);
  bool bound() const noexcept { return bound_; }
  /// Clears all protocol state (buffers, sink, logs) and re-seeds the
  /// randomness; the root handler is kept. Used between setup attempts.
  void reset(Rng rng);

  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  /// Application-level origination: enqueue a message for the root. The
  /// caller provides origin == this node's id and a per-origin-unique seq.
  /// Wakes the station when autosleep descheduled it (drivers inject
  /// between slots; Waker::wake is merged before the next poll).
  void inject(const Message& m);

  NodeId id() const noexcept { return me_; }
  std::uint32_t level() const noexcept { return level_; }
  bool is_root() const noexcept { return is_root_; }
  std::size_t buffer_size() const noexcept { return buffer_.size(); }

  /// Root only: everything delivered so far, in arrival order.
  const std::vector<Delivery>& root_sink() const noexcept { return sink_; }
  /// Root only: hook invoked on each arrival (used by BroadcastService to
  /// feed the distribution pipeline). Set once before the run.
  void set_root_handler(std::function<void(SlotTime, const Message&)> h) {
    root_handler_ = std::move(h);
  }

  /// Accepted-from-child log for Theorem 4.1 measurements: (phase, level of
  /// the child the message came from). Enabled via `record_accepts`.
  void record_accepts(bool on) noexcept { record_accepts_ = on; }
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& accept_log()
      const noexcept {
    return accept_log_;
  }

  const PhaseClock& clock() const noexcept { return clock_; }

 private:
  NodeId me_;
  NodeId parent_ = kNoNode;
  std::uint32_t level_ = 0;
  bool is_root_ = false;
  bool bound_ = false;
  PhaseClock clock_;
  Rng rng_;

  std::deque<Message> buffer_;
  DecayProcess decay_;
  std::uint64_t attempt_phase_ = static_cast<std::uint64_t>(-1);
  bool attempt_done_ = false;     ///< acked this phase; stay silent
  bool just_transmitted_ = false;
  std::optional<Message> ack_to_send_;

  std::vector<Delivery> sink_;
  std::function<void(SlotTime, const Message&)> root_handler_;
  bool record_accepts_ = false;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> accept_log_;
  bool dedup_guard_ = false;
  std::set<std::uint64_t> seen_;  ///< (origin << 32) | seq, guard mode only
  bool autosleep_ = false;
  Waker* waker_ = nullptr;  ///< set by on_attach iff autosleep_ is on
};

/// Standalone driver: places `initial` messages on their origins' buffers,
/// runs the protocol until the root has received all of them (or max_slots
/// elapses), and reports timing plus the per-level phase statistics used by
/// the Theorem 4.1 experiment.
struct CollectionOutcome {
  bool completed = false;
  /// kOk iff completed; kDegraded when the stall watchdog fired;
  /// kFailed when max_slots ran out.
  RunStatus status = RunStatus::kOk;
  SlotTime slots = 0;
  std::uint64_t phases = 0;
  std::vector<CollectionStation::Delivery> deliveries;

  /// Per level i >= 1: phases at whose start level i held >= 1 message, and
  /// among those, phases during which >= 1 message moved from level i to
  /// level i-1 (Theorem 4.1's event).
  std::vector<std::uint64_t> occupied_phases;
  std::vector<std::uint64_t> advance_phases;

  /// Engine on_slot invocations (EngineStats::station_polls): scheduling
  /// economy, not radio physics — the autosleep A/B tests assert it drops
  /// while everything above stays byte-identical.
  std::uint64_t engine_polls = 0;
};

CollectionOutcome run_collection(const Graph& g, const BfsTree& tree,
                                 std::vector<Message> initial,
                                 const CollectionConfig& cfg,
                                 std::uint64_t seed,
                                 SlotTime max_slots = 100'000'000);

}  // namespace radiomc
