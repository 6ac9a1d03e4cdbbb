#pragma once

// Virtual shared bus with collision detection (§1.3):
//   "In [4] Bar-Yehuda et al. ... show how to detect conflicts and
//    simulate a single hop network. Thus they show how to use protocols
//    designed for the ETHERNET in a multi-hop network."
//
// This module provides that capability on top of this paper's own
// machinery. The emulation proceeds in *rounds*, each round emulating one
// slot of a single-hop channel with ternary feedback:
//
//  1. every station reports to the root over the collection channel —
//     either the frame it offers this round or an explicit "idle" report;
//  2. when the root holds all n reports it classifies the round (silence /
//     success / collision — i.e. 0, 1, or >= 2 offered frames) and
//     broadcasts the outcome over the distribution channel;
//  3. a station starts round r+1 when it delivers outcome r, so all
//     stations observe the identical feedback sequence.
//
// The emulation is deterministic and loss-free (it inherits the §3/§6
// reliability of the underlying channels); its cost is O((n + D) log Delta)
// slots per round — the price of exact per-round feedback. [4] achieves
// cheaper emulation with probabilistic feedback; see DESIGN.md.
//
// `EthernetBackoff` implements the classic slotted-ALOHA/Ethernet binary
// exponential backoff on top of the bus, demonstrating §1.3's point that
// single-hop MAC protocols run unchanged over a multi-hop network.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "protocols/collection.h"
#include "protocols/distribution.h"
#include "protocols/instruments.h"
#include "protocols/tree.h"
// The emulation layer (§1.3) is itself the "wire": it owns the
// RadioNetwork that plays the single-hop ethernet segment.
// radiomc-lint: allow(layer-dag) reason=emulation owns the virtual bus engine
#include "radio/network.h"
#include "support/rng.h"

namespace radiomc {

class VirtualEthernet {
 public:
  /// Of the Instruments, the bus takes only `faults`, injected into its
  /// own radio layer. The §3/§6 reliability of the underlying channels
  /// absorbs jam/drop noise (the bus stays exact, just slower). Crash plans
  /// without a recover_rate can stall a round forever — the root waits for
  /// all n reports — so pair crash_rate with recovery, or bound the run
  /// with max_slots.
  struct Config : private Instruments {
    using Instruments::faults;
    CollectionConfig collection;
    DistributionConfig distribution;

    const Instruments& instruments() const noexcept { return *this; }

    static Config for_graph(const Graph& g) {
      Config c;
      c.collection = CollectionConfig::for_graph(g);
      c.distribution = DistributionConfig::for_graph(g);
      return c;
    }
  };

  enum class Feedback : std::uint8_t { kSilence, kSuccess, kCollision };

  struct RoundOutcome {
    std::uint32_t round = 0;
    Feedback kind = Feedback::kSilence;
    NodeId winner = kNoNode;       ///< valid for kSuccess
    std::uint32_t frame = 0;       ///< valid for kSuccess (31-bit payload)
  };

  /// A station's offer for a round: nullopt = stay idle.
  using Policy =
      std::function<std::optional<std::uint32_t>(NodeId node,
                                                 std::uint32_t round)>;

  VirtualEthernet(const Graph& g, const BfsTree& tree, Config cfg,
                  std::uint64_t seed);

  void set_policy(Policy p) { policy_ = std::move(p); }

  /// Runs until every station has delivered `rounds` outcomes (or
  /// max_slots elapse). If `halt` is set, it is evaluated on the root's
  /// outcome stream after every published round; once true, no further
  /// rounds start and the run drains so every station ends with the same
  /// stream. Returns the outcome log (identical at every station by
  /// construction; verified by the tests).
  using HaltFn = std::function<bool(const std::vector<RoundOutcome>&)>;
  std::vector<RoundOutcome> run_rounds(std::uint32_t rounds,
                                       SlotTime max_slots = 200'000'000,
                                       HaltFn halt = nullptr);

  SlotTime now() const;
  /// The outcome sequence as delivered at a given node (for tests).
  const std::vector<RoundOutcome>& outcomes_at(NodeId v) const {
    return node_outcomes_[v];
  }
  /// Radio-layer counters of the virtual bus (fault_jams / fault_drops
  /// show how much noise the emulation absorbed).
  const NetMetrics& bus_metrics() const;

 private:
  void start_round(NodeId v, std::uint32_t round);
  void pump();

  const Graph& g_;
  const BfsTree& tree_;
  Config cfg_;
  Policy policy_;
  std::vector<std::unique_ptr<CollectionStation>> coll_;
  std::vector<std::unique_ptr<DistributionStation>> dist_;
  std::vector<std::unique_ptr<Station>> muxes_;
  std::unique_ptr<RadioNetwork> net_;
  std::unique_ptr<NetworkWiring> wiring_;

  std::vector<std::uint32_t> node_round_;       ///< rounds observed so far
  std::vector<std::uint32_t> next_up_seq_;
  std::vector<std::vector<RoundOutcome>> node_outcomes_;

  // Root bookkeeping.
  std::map<std::uint32_t, std::vector<std::pair<NodeId, std::uint64_t>>>
      reports_;                                  ///< round -> (node, payload)
  std::uint32_t root_round_published_ = 0;
};

/// Binary exponential backoff over the virtual bus: every station with a
/// backlog offers its next frame with probability 2^-backoff, doubling the
/// backoff on collision feedback and resetting it on success. Returns when
/// all backlogs drained (the bus carried every frame exactly once).
struct BackoffOutcome {
  bool completed = false;
  std::uint32_t rounds_used = 0;
  SlotTime slots = 0;
  std::vector<std::uint32_t> delivered_frames;  ///< in bus order
  NetMetrics net;  ///< the virtual bus's radio-layer counters
};
/// `faults` is injected into the bus's radio layer (see
/// VirtualEthernet::Config::faults); the default disabled plan leaves the
/// run byte-identical to the historical fault-free signature.
BackoffOutcome run_ethernet_backoff(const Graph& g, const BfsTree& tree,
                                    const std::vector<std::uint32_t>& backlog_per_node,
                                    std::uint64_t seed,
                                    std::uint32_t max_rounds = 4096,
                                    const FaultPlan& faults = {});

}  // namespace radiomc
