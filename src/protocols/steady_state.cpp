#include "protocols/steady_state.h"

#include <deque>
#include <map>
#include <memory>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/rng.h"
#include "support/rng_tags.h"
#include "support/util.h"

namespace radiomc {

SteadyStateOutcome run_collection_steady_state(
    const Graph& g, const BfsTree& tree, double lambda_per_phase,
    std::uint64_t phases, std::uint64_t warmup_phases, std::uint64_t seed,
    ArrivalPlacement placement, const FaultPlan& faults,
    perf::Profiler* profiler, SlotHook* slot_hook) {
  const NodeId n = g.num_nodes();
  require(tree.num_nodes() == n, "steady_state: tree/graph mismatch");
  require(lambda_per_phase > 0.0 && lambda_per_phase < 1.0,
          "steady_state: lambda in (0,1)");
  require(n >= 2, "steady_state: need a non-root node");

  // Candidate origins per placement.
  std::vector<NodeId> origins;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    if (placement == ArrivalPlacement::kUniform ||
        tree.level[v] == tree.depth)
      origins.push_back(v);
  }
  require(!origins.empty(), "steady_state: no arrival sites");

  Rng master(seed);
  CollectionConfig cfg = CollectionConfig::for_graph(g);
  std::vector<std::unique_ptr<CollectionStation>> st;
  for (NodeId v = 0; v < n; ++v)
    st.push_back(
        std::make_unique<CollectionStation>(v, tree, cfg, master.split(v)));
  std::deque<SingleStation> adapters;
  std::vector<Station*> ptrs;
  for (auto& s : st) adapters.emplace_back(*s);
  for (auto& a : adapters) ptrs.push_back(&a);
  Rng arrivals_rng = master.split(rng_tags::kSteadyArrival);
  // Wired after the arrival split, so a faulted run faces the identical
  // arrival sequence as a fault-free run with the same seed.
  RadioNetwork net(g);
  Instruments in;
  in.slot_hook = slot_hook;
  in.faults = faults;
  const NetworkWiring wiring(net, g, std::move(ptrs), in, master);

  const std::uint64_t slots_per_phase = st[0]->clock().slots_per_phase();

  SteadyStateOutcome out;
  // Ordered so that no future drain/merge over in-flight tags can pick up
  // hash-iteration order (the lint unordered-container rule's contract).
  std::map<std::uint64_t, std::uint64_t> birth_phase;  // tag -> phase
  std::vector<std::uint32_t> next_seq(n, 0);
  std::size_t harvested = 0;
  std::uint64_t in_system = 0;

  const std::uint64_t total_phases = warmup_phases + phases;
  perf::PerfSpan run_span(profiler, "steady.run");
  for (std::uint64_t phase = 0; phase < total_phases; ++phase) {
    perf::PerfSpan phase_span(profiler, "steady.phase");
    // Sample, then admit this phase's arrival, then run the phase.
    if (phase >= warmup_phases)
      out.population.add(static_cast<double>(in_system));
    if (arrivals_rng.bernoulli(lambda_per_phase)) {
      const NodeId v = origins[arrivals_rng.next_below(origins.size())];
      Message m;
      m.kind = MsgKind::kData;
      m.origin = v;
      m.seq = next_seq[v]++;
      st[v]->inject(m);
      birth_phase[(static_cast<std::uint64_t>(v) << 32) | m.seq] = phase;
      ++in_system;
      if (phase >= warmup_phases) ++out.arrivals;
    }
    net.run(slots_per_phase);

    const auto& sink = st[tree.root]->root_sink();
    for (; harvested < sink.size(); ++harvested) {
      const Message& m = sink[harvested].msg;
      const std::uint64_t tag =
          (static_cast<std::uint64_t>(m.origin) << 32) | m.seq;
      const auto it = birth_phase.find(tag);
      if (it == birth_phase.end()) continue;
      --in_system;
      if (phase >= warmup_phases) {
        ++out.delivered;
        out.sojourn_phases.add(static_cast<double>(phase - it->second + 1));
      }
      birth_phase.erase(it);
    }
  }
  out.phases = phases;
  return out;
}

}  // namespace radiomc
