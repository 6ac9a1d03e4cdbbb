#pragma once

// The randomized single-source broadcast of Bar-Yehuda, Goldreich & Itai
// [3], the building block the paper reuses for its setup phase: every
// informed node runs one Decay invocation per phase; an uninformed node
// that hears the message becomes informed. With a phase budget of
// O(D + log(n/eps)) all nodes are informed with probability 1 - eps.
//
// Used here as (a) the "success" floods inside the setup phase (§2),
// (b) the naive k-broadcast baseline ("in principle the message can be
// sent using the BFS protocol", §6), and (c) a test vehicle for Decay.

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault_plan.h"
#include "protocols/decay.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {

/// Per-node state machine of the BGI flood. Free-running phases of one
/// Decay invocation each; no acks, no level gating (the flood has no tree).
class FloodStation final : public SubStation {
 public:
  /// `autosleep`: opt into active-set descheduling where the station is
  /// engine-attached directly (SingleStation). Uninformed stations are the
  /// win — they neither transmit nor mutate on poll, so they sleep until
  /// the message front's delivery wakes them; informed stations re-wake
  /// every poll (the flood restarts Decay each phase, so they always have
  /// a future duty). Byte-identical to always-active either way; only
  /// EngineStats::station_polls differs. The setup station forwards its
  /// Waker to its completion flood, so the promise holds there too.
  explicit FloodStation(std::uint32_t decay_len, Rng rng,
                        bool autosleep = true);

  /// Makes this node the (or a) source: informed from the start.
  void seed(const Message& m);

  /// Clears the flood state and re-seeds the randomness (setup attempts).
  void reset(Rng rng);

  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  bool informed() const noexcept { return informed_; }
  const Message& message() const noexcept { return msg_; }
  /// Slot (station-local time) of first reception; 0 for sources.
  SlotTime informed_at() const noexcept { return informed_at_; }

 private:
  std::uint32_t decay_len_;
  Rng rng_;
  bool informed_ = false;
  SlotTime informed_at_ = 0;
  Message msg_;
  DecayProcess decay_;
  std::uint64_t attempt_phase_ = static_cast<std::uint64_t>(-1);
  bool just_transmitted_ = false;
  bool autosleep_ = false;
  Waker* waker_ = nullptr;  ///< set by on_attach iff autosleep_ is on
};

/// Standalone driver: floods one message from `source` for `phases` phases;
/// reports who was informed when.
struct BgiOutcome {
  SlotTime slots = 0;
  std::uint32_t informed_count = 0;
  std::vector<bool> informed;
  std::vector<SlotTime> informed_at;  ///< meaningful where informed

  /// Engine on_slot invocations (EngineStats::station_polls): scheduling
  /// economy only — the autosleep A/B tests assert it drops while the
  /// informed sets stay identical.
  std::uint64_t engine_polls = 0;
};
/// `faults`: optional fault plan compiled against the flood network (the
/// phase budget bounds the run, so no watchdog is needed; under faults the
/// informed count simply reports the partial coverage).
/// `autosleep`: forwarded to every FloodStation; kept as a parameter for
/// the A/B byte-identity tests.
BgiOutcome run_bgi_broadcast(const Graph& g, NodeId source,
                             std::uint64_t phases, std::uint64_t seed,
                             const FaultPlan& faults = {},
                             bool autosleep = true);

}  // namespace radiomc
