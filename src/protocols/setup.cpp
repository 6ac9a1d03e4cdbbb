#include "protocols/setup.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "perf/profiler.h"
#include "radio/network.h"
#include "support/rng_tags.h"
#include "support/util.h"

namespace radiomc {

SetupSchedule setup_schedule(NodeId n, std::uint32_t decay_len,
                             const SetupTuning& tuning,
                             std::uint32_t attempt) {
  const std::uint64_t dl = decay_len;
  const std::uint64_t ln = ceil_log2(n < 2 ? 2 : n) + 2;
  const std::uint64_t boost = std::uint64_t{1} << std::min<std::uint32_t>(attempt, 20);

  SetupSchedule s;
  s.le = boost * tuning.leader_mult * ln * dl;
  s.bv = boost * tuning.verify_mult * (static_cast<std::uint64_t>(n) + 4) * dl;
  s.dfs1 = 2 * static_cast<SlotTime>(n) + 2;
  s.dfs2 = 2 * static_cast<SlotTime>(n) + 2;
  s.fv = s.bv;
  s.gl = boost * tuning.flood_mult * (static_cast<std::uint64_t>(n) + 4) * dl;
  return s;
}

namespace {

/// The per-node state machine of the whole setup phase; channel 0 carries
/// the epoch-specific protocol (election / announcements / floods / token),
/// channel 1 carries the always-on verification collection.
class SetupStation final : public Station {
 public:
  SetupStation(NodeId me, const Graph& g, SetupTuning tuning, Rng rng)
      : me_(me),
        n_(g.num_nodes()),
        decay_len_(decay_length(g.max_degree())),
        tuning_(tuning),
        rng_(rng),
        le_(me, make_leader_cfg(), rng_.split(rng_tags::kSetupLeader)),
        bfs_(me, make_bfs_cfg(), rng_.split(rng_tags::kSetupBfs)),
        coll_(me, make_coll_cfg(), rng_.split(rng_tags::kSetupVerifyCollection)),
        flood_g_(decay_len_, bgi_phase_quota(n_),
                 rng_.split(rng_tags::kSetupFloodG)),
        dfs1_(me, neighbor_vector(g, me)),
        dfs2_(me) {
    coll_.set_root_handler([this](SlotTime t, const Message& m) {
      if (m.kind != MsgKind::kSetupReport) return;
      if (m.seq == 0) {
        reporters_b_.insert(m.origin);
      } else if (m.seq == 1 && m.aux == 1) {
        reporters_f_.insert(m.origin);
        if (reporters_f_.size() == static_cast<std::size_t>(n_) - 1 &&
            verified_f_at_ == 0)
          verified_f_at_ = t;
      }
    });
    start_attempt();
  }

  // Autosleep. Between the slots where it has work the station is a pure
  // no-op, so the engine may skip it:
  //   * every epoch boundary action (become_root, begin_dfs1/2,
  //     inject_final_report, the G seed, the attempt rollover) runs on the
  //     boundary's exact slot because the next boundary is always armed as
  //     a timer (on_slot_end);
  //   * the election and the BFS construction transmit only from phase
  //     starts they can name in advance (next_duty), also armed as timers;
  //     their polls draw no randomness, and Decay's coin is flipped in
  //     tick only after a real transmission, which retains membership;
  //   * everything else is driven by receptions — a token for the DFS
  //     stations, a better campaign value, a BFS announcement — so every
  //     reception wakes the station;
  //   * the verification collection and the completion flood keep their
  //     own Waker promise (duty-wakes while they hold work) on the shared
  //     handle.
  // tests/setup_pin_test.cpp pins the always-polled outcomes exactly.
  void on_attach(Waker& w) override {
    waker_ = &w;
    w.set_autosleep(true);
    coll_.on_attach(w);
    flood_g_.on_attach(w);
  }

  void on_slot(SlotTime t, std::span<std::optional<Message>> tx) override {
    // Resync to the globally known schedule. A while-loop, not an equality
    // test: a station crashed across an attempt boundary (fault injection)
    // wakes up mid-schedule and must roll forward through every boundary
    // it slept through, or it would desynchronize forever.
    while (t >= attempt_start_ + sched_.attempt_length()) {
      attempt_start_ += sched_.attempt_length();
      ++attempt_;
      start_attempt();
    }
    const SlotTime r = t - attempt_start_;

    // Channel 1: the verification collection runs from the start of epoch
    // B to the end of the attempt.
    if (r >= b_start() && coll_bound_) tx[1] = coll_.poll(r - b_start());

    // Channel 0: the epoch-specific protocol.
    if (r < b_start()) {
      tx[0] = le_.poll(r);
    } else if (r < d_start()) {
      if (r == b_start() && le_.believes_leader()) become_root();
      tx[0] = bfs_.poll(r - b_start());
    } else if (r < e_start()) {
      if (r == d_start()) begin_dfs1();
      tx[0] = dfs1_.poll(r);
    } else if (r < f_start()) {
      if (r == e_start()) begin_dfs2();
      tx[0] = dfs2_.poll(r);
    } else if (r < g_start()) {
      if (r == f_start()) inject_final_report();
      // channel 0 idle; collection drains the reports on channel 1
    } else {
      if (r == g_start() && is_root_ && f_verified()) {
        Message ok;
        ok.kind = MsgKind::kBcastData;
        ok.origin = me_;
        ok.payload = 0x5e707ul;  // "setup ok"
        flood_g_.seed(ok);
      }
      tx[0] = flood_g_.poll(r - g_start());
    }
  }

  void on_receive(SlotTime t, ChannelId ch, const Message& m) override {
    if (waker_ != nullptr) waker_->wake();
    const SlotTime r = t - attempt_start_;
    if (ch == 1) {
      if (r >= b_start()) coll_.deliver(r - b_start(), m);
      return;
    }
    if (r < b_start()) {
      le_.deliver(r, m);
    } else if (r < d_start()) {
      bfs_.deliver(r - b_start(), m);
      maybe_join();
    } else if (r < e_start()) {
      dfs1_.deliver(r, m);
    } else if (r < f_start()) {
      dfs2_.deliver(r, m);
    } else if (r >= g_start()) {
      flood_g_.deliver(r - g_start(), m);
    }
  }

  void on_slot_end(SlotTime t) override {
    const SlotTime r = t - attempt_start_;
    if (r < b_start()) {
      le_.tick(r);
    } else if (r < d_start()) {
      bfs_.tick(r - b_start());
    } else if (r >= g_start()) {
      flood_g_.tick(r - g_start());
    }
    if (r >= b_start() && coll_bound_) coll_.tick(r - b_start());
    if (waker_ != nullptr) waker_->wake_at(attempt_start_ + next_duty(r + 1));
  }

  // Driver-side inspection.
  bool is_root() const noexcept { return is_root_; }
  bool f_verified() const noexcept {
    return is_root_ && self_consistent() &&
           reporters_f_.size() == static_cast<std::size_t>(n_) - 1;
  }
  bool done() const noexcept { return flood_g_.informed(); }
  std::uint32_t attempt() const noexcept { return attempt_; }
  SlotTime verified_f_at() const noexcept { return verified_f_at_; }

  std::uint32_t level() const noexcept { return bfs_.level(); }
  NodeId parent() const noexcept { return bfs_.parent(); }
  RoutingInfo routing() const {
    RoutingInfo r;
    r.parent = bfs_.parent();
    r.level = bfs_.level();
    r.number = dfs2_.number();
    r.max_desc = dfs2_.max_desc();
    r.children = dfs2_.children();
    r.child_number = dfs2_.child_number();
    r.child_max_desc = dfs2_.child_max_desc();
    return r;
  }

 private:
  static std::vector<NodeId> neighbor_vector(const Graph& g, NodeId v) {
    auto nb = g.neighbors(v);
    return {nb.begin(), nb.end()};
  }
  LeaderConfig make_leader_cfg() const {
    LeaderConfig c;
    c.decay_len = decay_len_;
    c.random_id_bits = tuning_.random_id_bits;
    return c;
  }
  BfsBuildConfig make_bfs_cfg() const {
    BfsBuildConfig c;
    c.decay_len = decay_len_;
    c.announce_phases = 2 * ceil_log2(n_ < 2 ? 2 : n_) + 2;
    return c;
  }
  CollectionConfig make_coll_cfg() const {
    CollectionConfig c;
    c.slots.decay_len = decay_len_;
    return c;
  }

  SlotTime b_start() const noexcept { return sched_.le; }
  SlotTime d_start() const noexcept { return b_start() + sched_.bv; }
  SlotTime e_start() const noexcept { return d_start() + sched_.dfs1; }
  SlotTime f_start() const noexcept { return e_start() + sched_.dfs2; }
  SlotTime g_start() const noexcept { return f_start() + sched_.fv; }

  /// The first attempt-relative slot >= r at which this station must be
  /// polled even if it hears nothing: the next epoch boundary, or sooner
  /// the next slot at which the election or the BFS construction may act.
  SlotTime next_duty(SlotTime r) const noexcept {
    SlotTime next = sched_.attempt_length();
    for (const SlotTime b :
         {b_start(), d_start(), e_start(), f_start(), g_start()}) {
      if (b >= r) {
        next = b;
        break;
      }
    }
    if (r < b_start()) {
      next = std::min(next, le_.next_duty(r));
    } else if (r < d_start()) {
      const SlotTime bfs = bfs_.next_duty(r - b_start());
      if (bfs < next - b_start()) next = b_start() + bfs;
    }
    return next;
  }

  void start_attempt() {
    sched_ = setup_schedule(n_, decay_len_, tuning_, attempt_);
    le_.reset();
    bfs_.reset();
    dfs1_.reset();
    dfs2_.reset();
    flood_g_.reset(rng_.split(rng_tags::kSetupFloodRetryBase + attempt_),
                   attempt_start_ + g_start());
    coll_.reset(rng_.split(rng_tags::kSetupCollRetryBase + attempt_));
    coll_bound_ = false;
    is_root_ = false;
    reported_final_ = false;
    reporters_b_.clear();
    reporters_f_.clear();
    verified_f_at_ = 0;
  }

  void become_root() {
    is_root_ = true;
    bfs_.make_root(me_);
    coll_.set_local(kNoNode, 0, /*is_root=*/true);
    coll_bound_ = true;
  }

  /// Binds the collection half and emits the §2 join report as soon as the
  /// BFS construction assigned this node a position (only a reception can
  /// do that, so on_receive is the one caller).
  void maybe_join() {
    if (is_root_ || coll_bound_ || !bfs_.joined()) return;
    coll_.set_local(bfs_.parent(), bfs_.level(), /*is_root=*/false);
    coll_bound_ = true;
    Message m;
    m.kind = MsgKind::kSetupReport;
    m.origin = me_;
    m.seq = 0;
    m.aux = bfs_.level();
    coll_.inject(m);
  }

  void begin_dfs1() {
    dfs1_.set_local(bfs_.level(), bfs_.parent(),
                    /*initiator=*/is_root_ && b_verified());
  }

  void begin_dfs2() {
    dfs2_.set_local(bfs_.parent(), dfs1_.bfs_children(),
                    /*is_root=*/is_root_ && b_verified());
  }

  bool b_verified() const noexcept {
    return reporters_b_.size() == static_cast<std::size_t>(n_) - 1;
  }

  bool self_consistent() const noexcept {
    return bfs_.joined() && bfs_.consistent() && dfs1_.visited() &&
           dfs1_.bfs_levels_consistent() && dfs2_.numbered();
  }

  void inject_final_report() {
    if (is_root_ || !coll_bound_ || reported_final_) return;
    Message m;
    m.kind = MsgKind::kSetupReport;
    m.origin = me_;
    m.seq = 1;
    m.aux = self_consistent() ? 1 : 0;
    coll_.inject(m);
    reported_final_ = true;
  }

  NodeId me_;
  NodeId n_;
  std::uint32_t decay_len_;
  SetupTuning tuning_;
  Rng rng_;

  std::uint32_t attempt_ = 0;
  SlotTime attempt_start_ = 0;
  SetupSchedule sched_;

  MaxFloodStation le_;
  BfsBuildStation bfs_;
  CollectionStation coll_;
  FloodStation flood_g_;
  GraphDfsStation dfs1_;
  TreeDfsStation dfs2_;
  Waker* waker_ = nullptr;  ///< set by on_attach

  bool coll_bound_ = false;
  bool is_root_ = false;
  bool reported_final_ = false;
  std::set<NodeId> reporters_b_;
  std::set<NodeId> reporters_f_;
  SlotTime verified_f_at_ = 0;
};

}  // namespace

SetupOutcome run_setup(const Graph& g, std::uint64_t seed, SetupTuning tuning,
                       std::uint32_t max_attempts) {
  const NodeId n = g.num_nodes();
  require(n >= 1, "run_setup: empty graph");
  const std::uint32_t dl = decay_length(g.max_degree());

  Rng master(seed);
  std::vector<std::unique_ptr<SetupStation>> stations;
  stations.reserve(n);
  for (NodeId v = 0; v < n; ++v)
    stations.push_back(
        std::make_unique<SetupStation>(v, g, tuning, master.split(v)));
  std::vector<Station*> ptrs;
  for (auto& s : stations) ptrs.push_back(s.get());

  RadioNetwork::Config ncfg;
  ncfg.num_channels = 2;
  RadioNetwork net(g, ncfg);
  const NetworkWiring wiring(net, g, std::move(ptrs), tuning, master);

  // Epoch boundaries are globally known (a pure function of n, Delta and
  // the attempt), so both the telemetry timeline and the perf span tree
  // can be laid down by the driver with no cooperation from the stations.
  auto epoch_table = [](const SetupSchedule& sched) {
    return std::array<std::pair<const char*, SlotTime>, 6>{
        {{"leader_election", sched.le},
         {"bfs_verify", sched.bv},
         {"dfs_graph", sched.dfs1},
         {"dfs_tree", sched.dfs2},
         {"final_verify", sched.fv},
         {"completion_flood", sched.gl}}};
  };
  auto record_attempt_spans = [&](std::uint32_t attempt, SlotTime base,
                                  const SetupSchedule& sched) {
    if (tuning.telemetry == nullptr) return;
    telemetry::PhaseTimeline& tl = tuning.telemetry->timeline;
    SlotTime t = base;
    for (const auto& [name, len] : epoch_table(sched)) {
      tl.record("setup", name, t, t + len,
                {{"attempt", static_cast<std::int64_t>(attempt)}});
      t += len;
    }
  };
  auto publish_totals = [&](const SetupOutcome& o) {
    if (tuning.profiler != nullptr)
      tuning.profiler->count("setup.slots", o.slots);
    if (tuning.telemetry == nullptr) return;
    telemetry::MetricsRegistry& reg = tuning.telemetry->metrics;
    reg.counter("setup.attempts").inc(o.attempts);
    reg.counter("setup.verification_restarts")
        .inc(o.attempts > 0 ? o.attempts - 1 : 0);
    reg.counter(o.ok ? "setup.completed" : "setup.failed").inc();
    wiring.publish("setup");
  };

  SetupOutcome out;
  SlotTime attempt_start = 0;
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    const SetupSchedule sched = setup_schedule(n, dl, tuning, attempt);
    const SlotTime attempt_end = attempt_start + sched.attempt_length();
    {
      // One perf span per attempt, one child per epoch; stepping epoch by
      // epoch to the same fixed boundaries leaves the slot stream exactly
      // as the flat while-loop produced it.
      perf::PerfSpan attempt_span(tuning.profiler, "setup.attempt");
      SlotTime epoch_end = attempt_start;
      for (const auto& [name, len] : epoch_table(sched)) {
        perf::PerfSpan epoch_span(tuning.profiler,
                                  std::string("setup.") + name);
        epoch_end += len;
        while (net.now() < epoch_end) net.step();
      }
      while (net.now() < attempt_end) net.step();  // defensive; no-op
    }
    if (tuning.profiler != nullptr) tuning.profiler->count("setup.attempts");
    record_attempt_spans(attempt, attempt_start, sched);
    attempt_start = attempt_end;
    out.attempts = attempt + 1;

    // Success iff one station verified as root and everyone heard the
    // completion flood (in a deployment the shortfall case simply rolls
    // into the next attempt, exactly as it does here).
    const SetupStation* root = nullptr;
    bool all_done = true;
    for (auto& s : stations) {
      if (s->f_verified()) root = s.get();
      all_done = all_done && (s->done() || s->f_verified());
    }
    if (root == nullptr || !all_done) continue;

    out.ok = true;
    out.slots = net.now();
    // verified_f_at is relative to epoch B of the successful attempt.
    out.work_slots = (attempt_end - sched.attempt_length()) + sched.le +
                     root->verified_f_at();
    std::vector<NodeId> parents(n);
    for (NodeId v = 0; v < n; ++v) parents[v] = stations[v]->parent();
    NodeId leader = kNoNode;
    for (NodeId v = 0; v < n; ++v)
      if (parents[v] == kNoNode) leader = v;
    out.leader = leader;
    out.tree = BfsTree::from_parents(leader, std::move(parents));
    out.labels.number.resize(n);
    out.labels.max_desc.resize(n);
    out.routing.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      out.routing[v] = stations[v]->routing();
      out.labels.number[v] = out.routing[v].number;
      out.labels.max_desc[v] = out.routing[v].max_desc;
    }
    out.engine_polls = net.engine_stats().station_polls;
    publish_totals(out);
    return out;
  }
  out.slots = net.now();
  out.engine_polls = net.engine_stats().station_polls;
  out.status = RunStatus::kDegraded;
  publish_totals(out);
  return out;
}

UnknownNOutcome run_setup_unknown_n(const Graph& g, NodeId n_upper,
                                    double eps, std::uint64_t seed) {
  require(n_upper >= g.num_nodes(),
          "run_setup_unknown_n: N must upper-bound n");
  require(eps > 0.0 && eps < 1.0, "run_setup_unknown_n: eps in (0,1)");
  UnknownNOutcome out;
  Rng rng(seed);

  // log2(N / eps), the per-stage repetition count of Remark 1's budgets.
  const double lg = std::log2(static_cast<double>(n_upper) / eps);
  const auto reps = static_cast<std::uint32_t>(lg) + 2;

  // Leader election with an N-derived budget (a deployment cannot adapt
  // to the unknown D, so the budget covers D <= N).
  const std::uint64_t le_phases = 4ull * (n_upper + reps);
  const LeaderOutcome le = run_leader_election(g, le_phases, rng.next());
  out.slots += le.slots;
  // The max id elects itself; with distinct ids this is unique, so proceed
  // with it as the BFS root (under Remark 1 the ids are still distinct —
  // only n is unknown).
  const NodeId root = static_cast<NodeId>(
      *std::max_element(le.best.begin(), le.best.end()));
  if (root >= g.num_nodes()) return out;

  BfsBuildConfig bcfg;
  bcfg.decay_len = decay_length(g.max_degree());
  bcfg.announce_phases = reps;
  const BfsBuildOutcome bfs =
      run_bfs_build(g, root, bcfg, rng.next(), n_upper + 1);
  out.slots += bfs.slots;
  if (!bfs.all_joined || !bfs.is_true_bfs) return out;
  out.tree_ok = true;
  out.tree = bfs.tree;

  // Remark 1's caveat: the descendant information still costs O(n ...)
  // time — the token traversals below are what that refers to (they are
  // budgeted by N in a deployment; the tokens themselves stop after
  // 2(n-1) hops, so we account the larger budget).
  const PreparationResult prep = run_preparation(g, bfs.tree);
  out.slots += 2ull * (2ull * n_upper + 2);
  if (!prep.ok) return out;
  out.prep_ok = true;
  out.labels = prep.labels;
  out.routing = prep.routing;
  return out;
}

}  // namespace radiomc
