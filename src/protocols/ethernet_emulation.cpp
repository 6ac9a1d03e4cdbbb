#include "protocols/ethernet_emulation.h"

#include <algorithm>

#include "support/util.h"

namespace radiomc {

namespace {

// Collection report payload: bit 63 = idle marker, low 32 bits = frame.
constexpr std::uint64_t kIdleBit = 1ull << 63;

// Distribution outcome payload: [61:60] kind, [59:32] winner, [31:0] frame.
std::uint64_t encode_outcome(VirtualEthernet::Feedback kind, NodeId winner,
                             std::uint32_t frame) {
  return (static_cast<std::uint64_t>(kind) << 60) |
         (static_cast<std::uint64_t>(winner & 0x0FFFFFFF) << 32) | frame;
}

VirtualEthernet::RoundOutcome decode_outcome(std::uint32_t round,
                                             std::uint64_t payload) {
  VirtualEthernet::RoundOutcome o;
  o.round = round;
  o.kind = static_cast<VirtualEthernet::Feedback>((payload >> 60) & 3);
  o.winner = static_cast<NodeId>((payload >> 32) & 0x0FFFFFFF);
  o.frame = static_cast<std::uint32_t>(payload);
  if (o.kind != VirtualEthernet::Feedback::kSuccess) {
    o.winner = kNoNode;
    o.frame = 0;
  }
  return o;
}

}  // namespace

VirtualEthernet::VirtualEthernet(const Graph& g, const BfsTree& tree,
                                 Config cfg, std::uint64_t seed)
    : g_(g), tree_(tree), cfg_(cfg) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "VirtualEthernet: tree/graph mismatch");
  Rng master(seed);
  node_round_.assign(n, 0);
  next_up_seq_.assign(n, 0);
  node_outcomes_.resize(n);

  for (NodeId v = 0; v < n; ++v) {
    coll_.push_back(std::make_unique<CollectionStation>(
        v, tree, cfg.collection, master.split(2 * v)));
    dist_.push_back(std::make_unique<DistributionStation>(
        v, tree, cfg.distribution, master.split(2 * v + 1)));
  }
  coll_[tree.root]->set_root_handler([this](SlotTime, const Message& m) {
    if (m.kind != MsgKind::kData) return;
    reports_[m.aux].emplace_back(m.origin, m.payload);
  });
  // Non-root stations learn outcomes through the distribution pipeline;
  // the outcome's distribution seq IS the round number (the root publishes
  // one outcome per round, in order).
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    auto* sink = &node_outcomes_[v];
    dist_[v]->set_delivery_handler(
        [sink](SlotTime, const Message& m) {
          sink->push_back(decode_outcome(m.seq, m.payload));
        });
  }

  std::vector<Station*> ptrs;
  RadioNetwork::Config ncfg;
  ncfg.num_channels = 2;
  for (NodeId v = 0; v < n; ++v)
    muxes_.push_back(std::make_unique<ChannelMuxStation>(
        std::vector<SubStation*>{coll_[v].get(), dist_[v].get()}));
  for (auto& m : muxes_) ptrs.push_back(m.get());
  net_ = std::make_unique<RadioNetwork>(g, ncfg);
  wiring_ = std::make_unique<NetworkWiring>(*net_, g, std::move(ptrs),
                                            cfg_.instruments(), master);
}

SlotTime VirtualEthernet::now() const { return net_->now(); }

const NetMetrics& VirtualEthernet::bus_metrics() const {
  return net_->metrics();
}

void VirtualEthernet::start_round(NodeId v, std::uint32_t round) {
  const std::optional<std::uint32_t> offer =
      policy_ ? policy_(v, round) : std::nullopt;
  const std::uint64_t payload =
      offer ? static_cast<std::uint64_t>(*offer) : kIdleBit;
  if (v == tree_.root) {
    reports_[round].emplace_back(v, payload);
    return;
  }
  Message m;
  m.kind = MsgKind::kData;
  m.origin = v;
  m.seq = next_up_seq_[v]++;
  m.aux = round;
  m.payload = payload;
  coll_[v]->inject(m);
}

void VirtualEthernet::pump() {
  // Root: publish the outcome of the next unpublished round once all n
  // reports for it arrived.
  const NodeId n = g_.num_nodes();
  for (;;) {
    const auto it = reports_.find(root_round_published_);
    if (it == reports_.end() || it->second.size() < n) break;
    std::uint32_t offered = 0;
    NodeId winner = kNoNode;
    std::uint32_t frame = 0;
    for (const auto& [node, payload] : it->second) {
      if (payload & kIdleBit) continue;
      ++offered;
      winner = node;
      frame = static_cast<std::uint32_t>(payload);
    }
    const Feedback kind = offered == 0   ? Feedback::kSilence
                          : offered == 1 ? Feedback::kSuccess
                                         : Feedback::kCollision;
    Message out;
    out.origin = tree_.root;
    out.payload = encode_outcome(kind, winner, frame);
    const std::uint32_t seq = dist_[tree_.root]->root_enqueue(out);
    // The root observes its own outcome immediately.
    node_outcomes_[tree_.root].push_back(decode_outcome(seq, out.payload));
    reports_.erase(it);
    ++root_round_published_;
  }
}

std::vector<VirtualEthernet::RoundOutcome> VirtualEthernet::run_rounds(
    std::uint32_t rounds, SlotTime max_slots, HaltFn halt) {
  require(policy_ != nullptr, "VirtualEthernet: set_policy first");
  require(rounds >= 1, "VirtualEthernet: rounds >= 1");
  const NodeId n = g_.num_nodes();
  std::uint32_t limit = rounds;
  for (NodeId v = 0; v < n; ++v) start_round(v, 0);

  while (net_->now() < max_slots) {
    pump();
    if (halt && limit == rounds &&
        halt(node_outcomes_[tree_.root])) {
      // Stop launching new rounds; drain what is already in flight.
      limit = static_cast<std::uint32_t>(node_outcomes_[tree_.root].size());
    }
    // A node starts round r+1 the moment it observed outcome r.
    bool all_done = true;
    for (NodeId v = 0; v < n; ++v) {
      while (node_round_[v] < node_outcomes_[v].size()) {
        ++node_round_[v];
        if (node_round_[v] < limit) start_round(v, node_round_[v]);
      }
      all_done = all_done && node_round_[v] >= limit;
    }
    if (all_done) return node_outcomes_[tree_.root];
    net_->step();
  }
  return node_outcomes_[tree_.root];
}

BackoffOutcome run_ethernet_backoff(
    const Graph& g, const BfsTree& tree,
    const std::vector<std::uint32_t>& backlog_per_node, std::uint64_t seed,
    std::uint32_t max_rounds, const FaultPlan& faults) {
  const NodeId n = g.num_nodes();
  require(backlog_per_node.size() == n,
          "run_ethernet_backoff: one backlog per node");
  Rng master(seed);

  VirtualEthernet::Config cfg = VirtualEthernet::Config::for_graph(g);
  cfg.faults = faults;
  VirtualEthernet bus(g, tree, cfg, master.next());

  // Per-node MAC state, updated from the shared feedback each round.
  struct Mac {
    std::uint32_t remaining = 0;
    std::uint32_t backoff = 0;  // offer with probability 2^-backoff
    bool offered_last = false;
    Rng rng{0};
  };
  std::vector<Mac> mac(n);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    mac[v].remaining = backlog_per_node[v];
    mac[v].rng = master.split(v);
    total += backlog_per_node[v];
  }

  BackoffOutcome out;
  std::uint32_t done_round = 0;
  // The policy runs the MAC: it is invoked exactly once per (node, round),
  // in round order, because the bus starts a node's round r+1 only after
  // it observed outcome r. Feedback is read from the node's own outcome
  // stream — identical at all nodes.
  bus.set_policy([&](NodeId v, std::uint32_t round) -> std::optional<std::uint32_t> {
    Mac& m = mac[v];
    if (round > 0) {
      const auto& fb = bus.outcomes_at(v)[round - 1];
      if (m.offered_last) {
        if (fb.kind == VirtualEthernet::Feedback::kSuccess &&
            fb.winner == v) {
          --m.remaining;
          m.backoff = 0;
        } else if (fb.kind == VirtualEthernet::Feedback::kCollision) {
          m.backoff = std::min(m.backoff + 1, 6u);  // binary exponential
        }
      } else if (fb.kind == VirtualEthernet::Feedback::kSilence &&
                 m.backoff > 0) {
        // Idle feedback means the channel is under-used: creep back up
        // (the standard backoff-decrease refinement).
        --m.backoff;
      }
    }
    m.offered_last = false;
    if (m.remaining == 0) return std::nullopt;
    if (m.backoff > 0 && !m.rng.bernoulli(1.0 / double(1u << m.backoff)))
      return std::nullopt;
    m.offered_last = true;
    return (v << 8) | (m.remaining & 0xFF);  // frame id
  });

  const auto outcomes = bus.run_rounds(
      max_rounds, 200'000'000,
      [total](const std::vector<VirtualEthernet::RoundOutcome>& so_far) {
        std::uint64_t succ = 0;
        for (const auto& o : so_far)
          if (o.kind == VirtualEthernet::Feedback::kSuccess) ++succ;
        return succ >= total;
      });
  for (const auto& o : outcomes) {
    if (o.kind == VirtualEthernet::Feedback::kSuccess) {
      out.delivered_frames.push_back(o.frame);
      if (out.delivered_frames.size() == total) {
        done_round = o.round + 1;
        break;
      }
    }
  }
  out.completed = out.delivered_frames.size() == total;
  out.rounds_used = out.completed ? done_round
                                  : static_cast<std::uint32_t>(outcomes.size());
  out.slots = bus.now();
  out.net = bus.bus_metrics();
  return out;
}

}  // namespace radiomc
