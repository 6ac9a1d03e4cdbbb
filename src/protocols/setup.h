#pragma once

// The full setup phase (§2 + the §5.1 preparation), made to *always*
// succeed — only its running time is random — via the paper's own
// transformation: verify by collection against a globally known schedule
// and reinvoke the whole phase on failure ("since all nodes know when the
// invocation should terminate, different invocations by the same processor
// cannot exist concurrently").
//
// Each attempt j runs a fixed, globally known schedule of epochs (every
// length is a function of n, Delta and j only, so all nodes agree on the
// boundaries with no communication):
//
//   A  leader election        max-flooding (leader_election.h); budget
//                             doubles with j, which is what makes the
//                             overall setup Las Vegas.
//   B  BFS + verification     staged BFS construction (bfs_build.h) on
//                             channel 0 while, concurrently on channel 1,
//                             every node that joins reports to the root
//                             with the collection protocol (§2: "when
//                             joining the tree each node sends a message
//                             to the root").
//   D  token DFS of the graph (dfs_numbering.h). Initiated by a root that
//                             received all n-1 join reports; teaches every
//                             node its neighbors' BFS parents and levels,
//                             and doubles as the level-consistency check.
//   E  token DFS of the tree  assigns DFS addresses and child intervals.
//   F  final verification     every node reports its consistency verdict
//                             (joined + level-consistent + visited +
//                             numbered) to the root over channel 1.
//   G  completion flood       a root whose F-verification passed floods
//                             "setup complete" (bgi_broadcast.h); a node is
//                             done when it hears it. Any shortfall anywhere
//                             simply lets the schedule roll into attempt
//                             j+1, where every station resets.
//
// The expected cost is dominated by the B/F collections, O(n log Delta),
// plus the attempt doubling — within the paper's O((n + D log n) log Delta)
// setup bound. Because epochs have fixed budgets, the *elapsed* setup time
// is the schedule length of the successful attempt; `work_slots` addition-
// ally reports when the root's verification actually completed.

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "protocols/bfs_build.h"
#include "protocols/bgi_broadcast.h"
#include "protocols/collection.h"
#include "protocols/dfs_numbering.h"
#include "protocols/instruments.h"
#include "protocols/leader_election.h"
#include "protocols/tree.h"
#include "radio/station.h"
#include "radio/trace.h"
#include "support/rng.h"

namespace radiomc {

/// Instruments: run_setup records one telemetry span and one perf span
/// per epoch per attempt (A..G, on the globally known schedule
/// boundaries) plus attempt/restart counters, and applies the fault plan
/// to the setup network itself — the verify/restart machinery is what
/// tolerates it: a mid-epoch crash surfaces as a failed verification and
/// the schedule rolls into the next attempt.
struct SetupTuning : Instruments {
  /// Multiplier on the B and F collection budgets (in units of n*decay_len).
  std::uint32_t verify_mult = 96;
  /// Multiplier on the completion-flood budget (units of n*decay_len).
  std::uint32_t flood_mult = 4;
  /// Phases per leader-election budget unit (units of (log2 n + 2)).
  std::uint32_t leader_mult = 8;
  /// §8 Remark 2: elect with random campaign values of this many bits
  /// instead of the nodes' ids (0 = use ids). Collisions of the maximum
  /// draw are caught by the verification epochs and trigger a redraw in
  /// the next attempt, so the setup stays always-correct even with tiny
  /// id spaces.
  std::uint32_t random_id_bits = 0;
};

/// The globally known epoch schedule of one setup attempt.
struct SetupSchedule {
  SlotTime le = 0;    ///< epoch A length
  SlotTime bv = 0;    ///< epoch B length
  SlotTime dfs1 = 0;  ///< epoch D length
  SlotTime dfs2 = 0;  ///< epoch E length
  SlotTime fv = 0;    ///< epoch F length
  SlotTime gl = 0;    ///< epoch G length

  SlotTime attempt_length() const noexcept {
    return le + bv + dfs1 + dfs2 + fv + gl;
  }
};
SetupSchedule setup_schedule(NodeId n, std::uint32_t decay_len,
                             const SetupTuning& tuning, std::uint32_t attempt);

struct SetupOutcome {
  bool ok = false;
  /// kOk iff ok; otherwise kDegraded — the attempt budget is the setup
  /// phase's built-in watchdog, so exhaustion is a clean structured
  /// outcome, never a hang.
  RunStatus status = RunStatus::kOk;
  SlotTime slots = 0;       ///< schedule time consumed (all attempts)
  SlotTime work_slots = 0;  ///< when the root's final verification completed
  std::uint32_t attempts = 0;
  NodeId leader = kNoNode;
  BfsTree tree;
  DfsLabels labels;
  std::vector<RoutingInfo> routing;
};

/// Runs the complete setup on graph `g`. Retries attempts (with doubled
/// leader budget) until one succeeds or `max_attempts` is exhausted; with
/// the default tuning a handful of attempts virtually always suffices, and
/// failure here indicates a configuration error, not bad luck.
SetupOutcome run_setup(const Graph& g, std::uint64_t seed,
                       SetupTuning tuning = {}, std::uint32_t max_attempts = 12);

/// §8 Remark 1: when n is unknown and only an upper bound N is, the BFS
/// tree can still be found with probability 1 - eps in expected
/// O(D log(N/eps) log Delta) time — but the §2 always-succeed verification
/// is impossible (the root cannot know how many reports to expect), so the
/// result is Monte Carlo. This driver runs leader election + BFS + the
/// DFS preparation with budgets derived from (N, eps) and reports whether
/// the run actually produced a correct tree (ground-truth check, available
/// to the experiment but not to the nodes).
struct UnknownNOutcome {
  bool tree_ok = false;   ///< spanning true-BFS tree was built
  bool prep_ok = false;   ///< DFS preparation completed consistently
  SlotTime slots = 0;
  BfsTree tree;           ///< valid iff tree_ok
  DfsLabels labels;       ///< valid iff prep_ok
  std::vector<RoutingInfo> routing;  ///< valid iff prep_ok
};
UnknownNOutcome run_setup_unknown_n(const Graph& g, NodeId n_upper,
                                    double eps, std::uint64_t seed);

}  // namespace radiomc
