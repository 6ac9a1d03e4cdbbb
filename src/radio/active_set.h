#pragma once

// Engine-side active-set bookkeeping (the notifier half of the
// task/notifier idiom: stations sleep until something wakes them, the
// engine polls only the awake ones).
//
// Membership is a sorted vector of node ids plus flat flag arrays, so the
// slot loop iterates members in ascending id order — the same order the
// legacy full-scan engine used, which is what keeps transmit lists, trace
// streams and capture-RNG draws byte-identical to the pre-rewrite engine.
//
// Timed wakes (`Waker::wake_at`) sit in a min-heap of (slot, node) that
// `begin_slot` drains into the same admission path as `wake()`; a due timer
// is indistinguishable from a wake raised just before its slot.
//
// Cost model: `begin_slot` is O(wakes since last slot + due timers *
// log(timers)), `end_slot` is O(1) when no station has autosleep enabled
// and no wake was raised (the all-legacy fast path), O(active + wakes)
// otherwise. A sort is paid only on slots where a sleeping station
// actually joined.
//
// All state is plain data owned by one engine; nothing here is
// thread-safe (one RadioNetwork = one trial = one thread, as everywhere
// in this codebase).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "radio/waker.h"

namespace radiomc {

class ActiveSet {
 public:
  /// Resets to n stations, all active, none autosleep, no pending wakes.
  void reset(NodeId n);

  NodeId size() const noexcept { return n_; }

  /// Current members, ascending. Valid until the next begin/end_slot.
  std::span<const NodeId> active() const noexcept {
    return {active_.data(), active_.size()};
  }
  bool contains(NodeId v) const noexcept { return in_active_[v] != 0; }
  bool autosleep(NodeId v) const noexcept { return autosleep_[v] != 0; }
  /// True iff any station ever enabled autosleep (engine fast-path gate).
  bool any_autosleep() const noexcept { return any_autosleep_; }

  /// Raises a wake for `v`: guarantees membership in the next slot and
  /// counts as "woken this slot" for the retention rule. Idempotent.
  void wake(NodeId v);
  /// Arms a timer: `v` is polled in slot `slot`. A slot that is not in the
  /// future (<= the next slot to begin) is a plain `wake(v)`. Timers
  /// accumulate — re-arming never cancels an earlier one, which simply
  /// fires as one extra idle poll; an exact repeat of the node's last
  /// armed slot is dropped.
  void wake_at(NodeId v, SlotTime slot);
  void set_autosleep(NodeId v, bool on);

  /// Admits stations woken since the previous slot and those whose timers
  /// fall due at `now` (sorting only if a non-member actually joined).
  /// Call at the top of every slot, with strictly increasing `now`.
  void begin_slot(SlotTime now);

  /// Applies the retention rule after all of a slot's callbacks ran:
  /// an autosleep member leaves unless `keep[v]` is set (it returned a
  /// transmit intent, or is crashed with membership frozen) or a wake was
  /// raised for it during the slot. `keep` is indexed by node id and read
  /// only at member indices. Consumes this slot's wake marks.
  void end_slot(const std::uint8_t* keep);

  /// Total wake() calls that raised a new mark (telemetry for tests and
  /// the engine's debug stats).
  std::uint64_t wake_events() const noexcept { return wake_events_; }

  /// Binds `w` to (this, v) so Station::on_attach can hand out handles.
  void bind(Waker* w, NodeId v) noexcept {
    w->set_ = this;
    w->node_ = v;
  }

 private:
  NodeId n_ = 0;
  std::vector<NodeId> active_;            // sorted member ids
  std::vector<std::uint8_t> in_active_;   // membership flag, by node
  std::vector<std::uint8_t> autosleep_;   // opt-in flag, by node
  std::vector<std::uint8_t> woke_flag_;   // wake raised this slot, by node
  std::vector<std::uint8_t> pending_flag_;  // queued for admission, by node
  std::vector<NodeId> slot_woken_;        // nodes with woke_flag_ set
  std::vector<NodeId> pending_;           // nodes with pending_flag_ set
  bool any_autosleep_ = false;
  std::uint64_t wake_events_ = 0;

  struct Timer {
    SlotTime slot;
    NodeId node;
    // Inverted so std::push_heap/pop_heap keep the earliest slot on top.
    bool operator<(const Timer& o) const noexcept { return slot > o.slot; }
  };
  std::vector<Timer> timers_;             // min-heap on slot
  std::vector<SlotTime> last_armed_;      // latest armed slot, by node
  SlotTime next_slot_ = 0;                // the slot the next begin_slot opens
};

}  // namespace radiomc
