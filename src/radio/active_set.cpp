#include "radio/active_set.h"

#include <algorithm>

namespace radiomc {

void ActiveSet::reset(NodeId n) {
  n_ = n;
  active_.resize(n);
  for (NodeId v = 0; v < n; ++v) active_[v] = v;
  in_active_.assign(n, 1);
  autosleep_.assign(n, 0);
  woke_flag_.assign(n, 0);
  pending_flag_.assign(n, 0);
  slot_woken_.clear();
  pending_.clear();
  any_autosleep_ = false;
  wake_events_ = 0;
  timers_.clear();
  last_armed_.assign(n, kNever);
  next_slot_ = 0;
}

void ActiveSet::wake(NodeId v) {
  if (!woke_flag_[v]) {
    woke_flag_[v] = 1;
    slot_woken_.push_back(v);
    ++wake_events_;
  }
  if (!pending_flag_[v]) {
    pending_flag_[v] = 1;
    pending_.push_back(v);
  }
}

void ActiveSet::wake_at(NodeId v, SlotTime slot) {
  if (slot <= next_slot_) {
    wake(v);
    return;
  }
  // A station that re-arms on every poll mostly repeats its last target
  // (the same epoch boundary, poll after poll); one heap entry serves all.
  // A fired target is never repeated: it is in the past by then.
  if (last_armed_[v] == slot) return;
  last_armed_[v] = slot;
  timers_.push_back({slot, v});
  std::push_heap(timers_.begin(), timers_.end());
}

void ActiveSet::set_autosleep(NodeId v, bool on) {
  autosleep_[v] = on ? 1 : 0;
  if (on) {
    any_autosleep_ = true;
  } else {
    // Opting out must pin the station active again; a plain flag flip
    // would strand a currently-sleeping station forever.
    wake(v);
  }
}

void ActiveSet::begin_slot(SlotTime now) {
  next_slot_ = now + 1;
  // Due timers join the pending wakes: a timer is a wake raised just
  // before its slot, admitted by the same rule.
  while (!timers_.empty() && timers_.front().slot <= now) {
    const NodeId v = timers_.front().node;
    std::pop_heap(timers_.begin(), timers_.end());
    timers_.pop_back();
    if (!pending_flag_[v]) {
      pending_flag_[v] = 1;
      pending_.push_back(v);
    }
  }
  if (pending_.empty()) return;
  bool joined = false;
  for (const NodeId v : pending_) {
    pending_flag_[v] = 0;
    // A wake raised between slots buys exactly this slot's poll; consume
    // its mark here or end_slot would honor it a second time and grant a
    // bonus slot of membership. (Marks raised *during* the slot come after
    // this drain and are consumed by end_slot, as the retention rule says.)
    woke_flag_[v] = 0;
    if (!in_active_[v]) {
      in_active_[v] = 1;
      active_.push_back(v);
      joined = true;
    }
  }
  pending_.clear();
  // Members must stay ascending: the slot loop's iteration order is what
  // keeps the rewritten engine byte-identical to the legacy full scan.
  if (joined) std::sort(active_.begin(), active_.end());
}

void ActiveSet::end_slot(const std::uint8_t* keep) {
  if (any_autosleep_) {
    std::size_t w = 0;
    for (const NodeId v : active_) {
      if (!autosleep_[v] || keep[v] || woke_flag_[v]) {
        active_[w++] = v;
      } else {
        in_active_[v] = 0;
      }
    }
    active_.resize(w);
  }
  // Wake marks are per-slot; pending_ persists so wakes raised late in the
  // slot (or between slots) still admit the station next begin_slot.
  for (const NodeId v : slot_woken_) woke_flag_[v] = 0;
  slot_woken_.clear();
}

// --- Waker -----------------------------------------------------------------
// Out of line so the station-visible header (radio/waker.h) does not pull
// the engine-side container into every protocol translation unit.

void Waker::wake() noexcept {
  if (set_ != nullptr) set_->wake(node_);
}

void Waker::wake_at(SlotTime slot) noexcept {
  if (set_ != nullptr) set_->wake_at(node_, slot);
}

void Waker::set_autosleep(bool on) noexcept {
  if (set_ != nullptr) set_->set_autosleep(node_, on);
}

}  // namespace radiomc
