#pragma once

// The randomized single-source broadcast of Bar-Yehuda, Goldreich & Itai
// [3], the building block the paper reuses for its setup phase. A node
// that first hears the message becomes informed; an informed node runs
// one Decay invocation per phase, for k phases, and then falls silent for
// good ("do k times Decay", k = 2*ceil(log2(N/eps))).
//
// Used here as (a) the "success" flood that ends the setup phase (§2,
// epoch G), (b) the naive k-broadcast baseline ("in principle the message
// can be sent using the BFS protocol", §6), and (c) a test vehicle for
// Decay.
//
// The phase quota. Every node knows n, so N = n and eps = 1/N give
// k = 2*ceil(log2 N^2) (bgi_phase_quota). A station's k phases are the
// first k *whole* phases after it is informed: decay_len-slot phases that
// start on a multiple of decay_len in the flood's own time. A source
// seeded at a phase boundary counts that phase. A station informed in
// mid-phase also runs a Decay in the rest of that phase, from its next
// slot on; that partial Decay is extra, not one of the k. Why the quota
// is sound:
//   * Setup stays Las Vegas. A node the completion flood (epoch G) misses
//     is not done, so run_setup's success check fails and the schedule
//     rolls into attempt j+1, where every station resets.
//   * The standalone flood informs all N nodes with probability >= 1-eps.
//     Take an uninformed v and its first informed neighbour u. In each of
//     u's k whole phases every neighbour of v that counts the phase starts
//     its Decay on the phase's first slot, so v hears one of them with
//     probability > 1/2 (Decay property (2)); v misses all k with
//     probability < 2^-k <= (eps/N)^2, and a union bound over the N nodes
//     stays below eps. BGI bound the time by O(D + log(N/eps)) phases,
//     the order of the budgets the callers pass. The extra partial Decay
//     is not phase-aligned, so a phase in which a neighbour of v joins
//     mid-phase lies outside this argument.
//   * A station polled without work is inert: its poll returns nothing,
//     draws no randomness and changes no state. That holds before it is
//     informed, after its quota, and in the rest of a phase whose Decay
//     has died (the coin usually ends a Decay after about 2 of its
//     decay_len slots). So it sleeps through all three: the delivery that
//     informs it wakes it, a transmission keeps it scheduled for the next
//     slot, and a poll that finds the Decay dead arms a timer for the next
//     phase start if that phase is within the quota. The timer is in
//     engine slots, so it needs the engine slot of the flood's slot 0 (the
//     slot base: 0 standalone, the start of epoch G in setup). Every
//     skipped poll is a no-op, so the run is byte-identical with and
//     without autosleep.
//   * In setup, epoch G keeps its fixed length, so the slots, work slots,
//     tree and labels depend only on which attempt succeeds, and the quota
//     moves that only through a node the flood misses (first point).

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/fault_plan.h"
#include "protocols/decay.h"
#include "radio/schedule.h"
#include "radio/station.h"
#include "support/rng.h"
#include "support/util.h"

namespace radiomc {

/// BGI's per-station phase quota k = 2*ceil(log2(N/eps)) with N = n and
/// eps = 1/N, i.e. 2*ceil(log2 N^2); n < 2 counts as 2.
constexpr std::uint32_t bgi_phase_quota(NodeId n) noexcept {
  const std::uint64_t big_n = n < 2 ? 2 : n;
  return 2 * ceil_log2(big_n * big_n);
}
static_assert(bgi_phase_quota(1) == 4);
static_assert(bgi_phase_quota(400) == 36);
static_assert(bgi_phase_quota(1024) == 40);

/// Per-node state machine of the BGI flood: one Decay invocation per phase
/// for `phase_quota` whole phases after being informed (see the file
/// comment for what counts), then silent; no acks, no level gating (the
/// flood has no tree).
class FloodStation final : public SubStation {
 public:
  /// `phase_quota`: k, normally bgi_phase_quota(n).
  /// `autosleep`: opt into active-set descheduling where the station is
  /// engine-attached directly (SingleStation). An uninformed station
  /// neither transmits nor mutates on poll, so it sleeps until the message
  /// front's delivery wakes it. An informed one is polled while its Decay
  /// transmits; once the Decay has died it sleeps until the next phase
  /// starts (a wake_at timer at slot base + phase start), and after the
  /// last phase of its quota it sleeps for good. Byte-identical to
  /// always-active either way; only EngineStats::station_polls differs.
  /// The setup station forwards its Waker to its completion flood, so the
  /// promise holds there too. The slot base is 0 until reset sets it.
  FloodStation(std::uint32_t decay_len, std::uint32_t phase_quota, Rng rng,
               bool autosleep = true);

  /// Makes this node the (or a) source: informed from the start.
  void seed(const Message& m);

  /// Clears the flood state and re-seeds the randomness (setup attempts).
  /// `base` is the engine slot of the flood's slot 0, where the phase-start
  /// timers are armed (setup: the attempt's start of epoch G).
  void reset(Rng rng, SlotTime base);

  void on_attach(Waker& w) override;
  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  bool informed() const noexcept { return informed_; }
  const Message& message() const noexcept { return msg_; }
  /// Slot (station-local time) of first reception; 0 for sources.
  SlotTime informed_at() const noexcept { return informed_at_; }

 private:
  static constexpr std::uint64_t kUnset = static_cast<std::uint64_t>(-1);

  std::uint32_t decay_len_;
  std::uint32_t quota_;
  Rng rng_;
  SlotTime base_ = 0;  ///< engine slot of the flood's slot 0
  bool informed_ = false;
  SlotTime informed_at_ = 0;
  Message msg_;
  DecayProcess decay_;
  std::uint64_t attempt_phase_ = kUnset;
  /// One past the last phase with a Decay; fixed at the first poll after
  /// being informed, kUnset before.
  std::uint64_t end_phase_ = kUnset;
  bool just_transmitted_ = false;
  bool autosleep_ = false;
  Waker* waker_ = nullptr;  ///< set by on_attach iff autosleep_ is on
};

/// The standalone flood: one message from `source`, with the phase quota
/// bgi_phase_quota(n), for a budget of `phases` phases; reports who was
/// informed when.
struct BgiOutcome {
  SlotTime slots = 0;
  std::uint32_t informed_count = 0;
  std::vector<bool> informed;
  std::vector<SlotTime> informed_at;  ///< meaningful where informed

  /// Engine on_slot invocations (EngineStats::station_polls): scheduling
  /// economy only. The autosleep A/B tests assert it drops while the
  /// informed sets stay identical; with the quota it is bounded by the
  /// stations' work, not by the phase budget.
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
