#pragma once

// The station-visible half of active-set scheduling.
//
// The BGI'89 protocols spend most slots with the overwhelming majority of
// stations silent — a node in Decay broadcast does nothing until the
// message front reaches it. The engine therefore keeps an *active set* and
// polls only its members each slot (see radio/active_set.h for the engine
// half and DESIGN.md §"Engine architecture" for the full contract).
//
// A `Waker` is the handle through which a station participates. The engine
// passes one to `Station::on_attach`; the default `on_attach` ignores it,
// which leaves the station permanently active — the legacy behavior, and
// always correct. A station that opts in via `set_autosleep(true)` promises:
//
//   * while it is not in the active set, its `on_slot` would have returned
//     no transmit intent, and skipping its `on_slot` / `on_slot_end`
//     callbacks does not change any decision it will ever make (i.e. its
//     behavior is a function of absolute slot time and received messages,
//     not of how often it was polled);
//   * whenever an event makes it want to transmit (typically inside
//     `on_receive`), it calls `wake()`;
//   * whenever it will want to act at a known future slot s with no event
//     in between (an epoch boundary, a phase start, a retransmission
//     timer), it has called `wake_at(s)` by the end of its last poll
//     before s.
//
// Scheduling rules (the membership invariant, property-tested by
// tests/engine_invariants_test.cpp):
//
//   * every station starts active at attach;
//   * an active autosleep station stays active for the next slot iff it
//     returned a transmit intent this slot or `wake()` was called for it
//     during this slot;
//   * `wake()` on a sleeping station guarantees it is polled in the next
//     slot (wakes raised between slots are merged before the next poll);
//   * `wake_at(s)` guarantees a poll in slot s; a slot s that is not in
//     the future (s <= the next slot to run) is exactly `wake()`. Timers
//     accumulate: a re-arm, earlier or later, never cancels a pending
//     timer, so a stale one costs at most one extra idle poll;
//   * receptions do not wake the receiver — a station that must act on a
//     delivered message calls `wake()` from its own `on_receive`;
//   * a crashed station (fault injection) keeps its membership frozen — it
//     is not polled while down, and resumes exactly where it was on
//     recovery, matching the legacy engine's "state frozen until recovery".
//     A timer falling due while it is down admits it frozen, so it is
//     polled at recovery;
//   * `set_autosleep(false)` re-wakes the station and pins it active; its
//     pending timers still fire, as harmless wakes of an active station.
//
// Like the slot structure, wakes are model-legal bookkeeping: a station may
// only call `wake()` / `wake_at()` from its own callbacks (or its driver
// between slots), never from another station's state — the lint
// determinism rules apply.

#include "graph/graph.h"
#include "radio/message.h"

namespace radiomc {

class ActiveSet;

class Waker {
 public:
  Waker() = default;

  /// Ensures this station is polled in the next slot. Idempotent; safe to
  /// call from on_slot / on_receive / on_slot_end or between slots.
  void wake() noexcept;

  /// Ensures this station is polled in slot `slot` (the Contiki
  /// `ctimer_set` idiom, in absolute slot time). A slot that is not in the
  /// future degrades to `wake()`. No-op on an unattached handle.
  void wake_at(SlotTime slot) noexcept;

  /// Opts the station in (true) or out (false) of descheduling. Opting
  /// out re-wakes the station and pins it active from the next slot on.
  void set_autosleep(bool on) noexcept;

  /// The node this handle belongs to.
  NodeId node() const noexcept { return node_; }

  /// False for a default-constructed handle (station not attached to an
  /// active-set engine).
  bool attached() const noexcept { return set_ != nullptr; }

 private:
  friend class ActiveSet;
  ActiveSet* set_ = nullptr;
  NodeId node_ = kNoNode;
};

}  // namespace radiomc
