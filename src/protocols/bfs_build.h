#pragma once

// Distributed BFS-tree construction (§2, after [3]).
//
// Time is divided into *stages* of `announce_phases` phases each. During
// stage s, exactly the nodes at level s run one Decay invocation per phase
// announcing (level = s, root id). An uninformed node that hears an
// announcement joins level s+1 with the announcing node as its BFS parent.
// With announce_phases = O(log(n/eps)) every reachable node joins the
// correct level with probability 1 - eps; the always-succeed wrapper of §2
// (verification by collection + restart, implemented in setup.cpp) removes
// the failure probability entirely, leaving only the running time random.
//
// A joined node also performs the consistency watch used by the setup
// verification: hearing an announcement of level s with s + 1 < own level
// proves the node's own level is too large, and the node reports itself
// inconsistent (levels can never be too small; see setup.cpp).

#include <cstdint>
#include <optional>

#include "protocols/decay.h"
#include "protocols/tree.h"
#include "radio/station.h"
#include "support/rng.h"

namespace radiomc {

inline constexpr std::uint32_t kNoLevel = static_cast<std::uint32_t>(-1);

struct BfsBuildConfig {
  std::uint32_t decay_len = 2;
  std::uint32_t announce_phases = 8;  ///< phases per stage, O(log(n/eps))
};

class BfsBuildStation final : public SubStation {
 public:
  BfsBuildStation(NodeId me, BfsBuildConfig cfg, Rng rng);

  /// Makes this node a root (level 0) announcing `root_id` (normally its
  /// own id; setup passes the elected leader's id).
  void make_root(NodeId root_id);
  /// Restores the initial (unjoined) state.
  void reset();

  std::optional<Message> poll(SlotTime t) override;
  void deliver(SlotTime t, const Message& m) override;
  void tick(SlotTime t) override;

  /// The earliest slot >= t at which `poll` may transmit or change state,
  /// in this station's own time; kNever if none. Until a delivery or
  /// `make_root` changes the state, every poll before it is a pure no-op:
  /// an unjoined node, or one outside its own stage `level()`, returns at
  /// once, and `poll` draws no randomness (Decay's coin is flipped in
  /// `tick`, and only after a real transmission).
  SlotTime next_duty(SlotTime t) const noexcept;

  bool joined() const noexcept { return level_ != kNoLevel; }
  std::uint32_t level() const noexcept { return level_; }
  NodeId parent() const noexcept { return parent_; }
  NodeId root_id() const noexcept { return root_id_; }
  bool consistent() const noexcept { return consistent_; }
  /// Station-local slot at which the node joined (0 for roots).
  SlotTime joined_at() const noexcept { return joined_at_; }

 private:
  NodeId me_;
  BfsBuildConfig cfg_;
  Rng rng_;
  std::uint32_t level_ = kNoLevel;
  NodeId parent_ = kNoNode;
  NodeId root_id_ = kNoNode;
  bool consistent_ = true;
  SlotTime joined_at_ = 0;
  DecayProcess decay_;
  std::uint64_t attempt_phase_ = static_cast<std::uint64_t>(-1);
  bool just_transmitted_ = false;

  std::uint64_t stage_of(SlotTime t) const noexcept {
    return t / (static_cast<std::uint64_t>(cfg_.decay_len) *
                cfg_.announce_phases);
  }
};

/// Standalone driver: builds a BFS tree from `root`, running stages until
/// one passes with no join (levels are contiguous, so an empty stage means
/// construction finished) or `max_stages` elapses. Returns the tree when
/// every node joined a correct BFS position, as most seeds do with
/// announce_phases = 2 ceil(log2 n) + 2; the setup wrapper handles retries.
struct BfsBuildOutcome {
  SlotTime slots = 0;
  bool all_joined = false;
  bool is_true_bfs = false;  ///< ground-truth check (test instrumentation)
  BfsTree tree;              ///< valid iff all_joined
};
BfsBuildOutcome run_bfs_build(const Graph& g, NodeId root,
                              const BfsBuildConfig& cfg, std::uint64_t seed,
                              std::uint64_t max_stages = 0 /* 0 = n+1 */);

}  // namespace radiomc
