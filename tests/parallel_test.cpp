// The deterministic parallel trial-runner (support/parallel.h) and the
// reproducibility contract built on it: at a fixed root seed, running a
// workload with jobs=8 must produce byte-identical merged metrics, bench
// statistics and telemetry JSON to jobs=1 — across both a collection
// workload and a setup workload — and the root generator must end in the
// same state either way.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "graph/generators.h"
#include "protocols/collection.h"
#include "protocols/setup.h"
#include "protocols/tree.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/stats.h"
#include "telemetry/telemetry.h"

namespace radiomc {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);

  // The pool is reusable after wait_idle.
  for (int i = 0; i < 50; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(RunIndexed, ResultsComeBackInIndexOrder) {
  for (unsigned jobs : {1u, 2u, 8u}) {
    const auto out = run_indexed(
        100, jobs, [](std::uint64_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(RunIndexed, ZeroAndSmallN) {
  EXPECT_TRUE(run_indexed(0, 8, [](std::uint64_t i) { return i; }).empty());
  const auto one = run_indexed(1, 8, [](std::uint64_t i) { return i + 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
}

TEST(RunIndexed, FirstExceptionPropagatesToCaller) {
  EXPECT_THROW(
      run_indexed(64, 4,
                  [](std::uint64_t i) -> int {
                    if (i == 5) throw std::runtime_error("trial 5 failed");
                    return static_cast<int>(i);
                  }),
      std::runtime_error);
  // Serial path throws too.
  EXPECT_THROW(
      run_indexed(8, 1,
                  [](std::uint64_t i) -> int {
                    if (i == 5) throw std::runtime_error("boom");
                    return 0;
                  }),
      std::runtime_error);
}

TEST(RunTrials, StreamsAndRootStateIndependentOfJobs) {
  std::vector<std::uint64_t> draws1, draws8;
  std::uint64_t root_after1 = 0, root_after8 = 0;
  {
    Rng root(42);
    draws1 = run_trials(64, 1, root,
                        [](std::uint64_t, Rng& r) { return r.next(); });
    root_after1 = root.next();
  }
  {
    Rng root(42);
    draws8 = run_trials(64, 8, root,
                        [](std::uint64_t, Rng& r) { return r.next(); });
    root_after8 = root.next();
  }
  EXPECT_EQ(draws1, draws8);
  EXPECT_EQ(root_after1, root_after8);
  // Streams are distinct across trials.
  const std::set<std::uint64_t> uniq(draws1.begin(), draws1.end());
  EXPECT_EQ(uniq.size(), draws1.size());
}

// ---------------------------------------------------------------------------
// Reproducibility: collection workload.

struct CollectionRun {
  std::vector<double> slots;
  std::string telemetry_json;
  double mean = 0, variance = 0;
};

CollectionRun collection_workload(unsigned jobs) {
  const Graph g = gen::grid(5, 5);
  const BfsTree tree = oracle_bfs_tree(g, 0);
  Rng root(0xC011EC7);

  struct Trial {
    double slots = 0;
    std::unique_ptr<telemetry::Telemetry> tel;
  };
  auto trials = run_trials(
      12, jobs, root, [&](std::uint64_t t, Rng& r) {
        Trial out;
        out.tel = std::make_unique<telemetry::Telemetry>();
        std::vector<Message> init;
        for (int i = 0; i < 8; ++i) {
          Message m;
          m.kind = MsgKind::kData;
          m.origin =
              static_cast<NodeId>(1 + r.next_below(g.num_nodes() - 1));
          m.seq = static_cast<std::uint32_t>(i);
          init.push_back(m);
        }
        CollectionConfig cfg = CollectionConfig::for_graph(g);
        cfg.telemetry = out.tel.get();
        out.slots = static_cast<double>(
            run_collection(g, tree, init, cfg, r.next()).slots);
        (void)t;
        return out;
      });

  CollectionRun run;
  telemetry::Telemetry merged;
  OnlineStats stats;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    run.slots.push_back(trials[t].slots);
    stats.add(trials[t].slots);
    merged.merge(*trials[t].tel, static_cast<std::int64_t>(t));
  }
  run.telemetry_json = merged.to_json();
  run.mean = stats.mean();
  run.variance = stats.variance();
  return run;
}

TEST(Reproducibility, CollectionWorkloadIdenticalAcrossJobCounts) {
  const CollectionRun a = collection_workload(1);
  const CollectionRun b = collection_workload(8);
  EXPECT_EQ(a.slots, b.slots);
  // Bitwise-equal statistics: the merge folds in trial order either way.
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.variance, b.variance);
  // Byte-identical merged telemetry document, spans tagged per trial.
  EXPECT_EQ(a.telemetry_json, b.telemetry_json);
  EXPECT_NE(a.telemetry_json.find("\"trial\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Reproducibility: setup workload.

struct SetupRun {
  std::vector<std::uint64_t> slots;
  std::string telemetry_json;
};

SetupRun setup_workload(unsigned jobs) {
  Rng root(0x5E7u);
  struct Trial {
    std::uint64_t slots = 0;
    std::unique_ptr<telemetry::Telemetry> tel;
  };
  auto trials = run_trials(
      6, jobs, root, [&](std::uint64_t, Rng& r) {
        Trial out;
        out.tel = std::make_unique<telemetry::Telemetry>();
        const Graph g = gen::grid(4, 4);
        SetupTuning tuning;
        tuning.telemetry = out.tel.get();
        const SetupOutcome s = run_setup(g, r.next(), tuning);
        EXPECT_TRUE(s.ok);
        out.slots = s.slots;
        return out;
      });
  SetupRun run;
  telemetry::Telemetry merged;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    run.slots.push_back(trials[t].slots);
    merged.merge(*trials[t].tel, static_cast<std::int64_t>(t));
  }
  run.telemetry_json = merged.to_json();
  return run;
}

TEST(Reproducibility, SetupWorkloadIdenticalAcrossJobCounts) {
  const SetupRun a = setup_workload(1);
  const SetupRun b = setup_workload(8);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.telemetry_json, b.telemetry_json);
}

TEST(Reproducibility, MeanOverSeedsIndependentOfJobs) {
  auto f = [](std::uint64_t seed) {
    Rng r(seed);
    double acc = 0;
    for (int i = 0; i < 100; ++i) acc += static_cast<double>(r.next() >> 40);
    return acc;
  };
  const OnlineStats s1 = bench::mean_over_seeds(40, 1234, f, 1);
  const OnlineStats s8 = bench::mean_over_seeds(40, 1234, f, 8);
  EXPECT_EQ(s1.mean(), s8.mean());
  EXPECT_EQ(s1.variance(), s8.variance());
  EXPECT_EQ(s1.count(), s8.count());
}

// ---------------------------------------------------------------------------
// The bench harness pieces trials are allowed to build privately.

TEST(BenchHarness, TableMergePreservesTrialOrder) {
  bench::Table main({"a", "b"});
  main.row({"r0", "x"});
  bench::Table t1({"a", "b"});
  t1.row({"r1", "y"});
  bench::Table t2({"a", "b"});
  t2.row({"r2", "z"});
  main.merge(t1);
  main.merge(t2);
  ASSERT_EQ(main.rows().size(), 3u);
  EXPECT_EQ(main.rows()[0][0], "r0");
  EXPECT_EQ(main.rows()[1][0], "r1");
  EXPECT_EQ(main.rows()[2][0], "r2");
}

TEST(BenchHarness, JsonEmitterMergedDocumentShape) {
  ::setenv("RADIOMC_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  bench::JsonEmitter main("TST", "merged document shape");
  main.row({{"k", std::uint64_t{1}}, {"v", 0.5}});
  bench::JsonEmitter trial("TST", "merged document shape");
  trial.row({{"k", std::uint64_t{2}}, {"v", 1.5}, {"ok", true}});
  trial.row({{"k", std::uint64_t{3}}, {"label", "s"}});
  main.merge(std::move(trial));
  main.pass(true);
  main.set_run_info(8, 12.5, 90.25);
  const std::string doc = main.document();
  EXPECT_EQ(doc.find("{\"schema\":\"radiomc.bench/v1\",\"bench\":\"TST\""),
            0u);
  EXPECT_NE(doc.find("\"rows\":[{\"k\":1,\"v\":0.5},"
                     "{\"k\":2,\"v\":1.5,\"ok\":true},"
                     "{\"k\":3,\"label\":\"s\"}]"),
            std::string::npos);
  EXPECT_NE(doc.find("\"pass\":true"), std::string::npos);
  // Run metadata trails the statistics so the prefix before it is a pure
  // function of the seed.
  const auto run_pos = doc.find("\"run\":{\"jobs\":8");
  ASSERT_NE(run_pos, std::string::npos);
  EXPECT_GT(run_pos, doc.find("\"pass\":"));
  // The merged-away emitter must not write a file on destruction; the
  // merge consumed it (checked implicitly: its dtor runs at scope exit
  // and printing "json:" to stdout would pollute gtest output, plus
  // write() would emit BENCH_TST.json twice).
  main.merge(bench::JsonEmitter("TST", "empty"));
  EXPECT_EQ(main.document(), doc);
}

TEST(BenchHarness, JsonEmitterMergeAndsPassFlag) {
  ::setenv("RADIOMC_BENCH_JSON_DIR", ::testing::TempDir().c_str(), 1);
  bench::JsonEmitter main("TST2", "pass flag");
  main.pass(true);
  bench::JsonEmitter failing("TST2", "pass flag");
  failing.pass(false);
  main.merge(std::move(failing));
  EXPECT_NE(main.document().find("\"pass\":false"), std::string::npos);
}

TEST(ParseJobs, OneGrammarForFlagAndEnvironment) {
  EXPECT_EQ(parse_jobs(""), std::nullopt);
  EXPECT_EQ(parse_jobs("abc"), std::nullopt);
  EXPECT_EQ(parse_jobs("4294967296"), std::nullopt);  // does not fit unsigned
  EXPECT_EQ(parse_jobs("0"), hardware_jobs());
  EXPECT_EQ(parse_jobs("3"), 3u);
}

TEST(BenchHarness, ParseOptionsReadsJobsFlag) {
  const char* argv[] = {"bench", "--jobs", "5"};
  const bench::Options o =
      bench::parse_options(3, const_cast<char**>(argv));
  EXPECT_EQ(o.jobs, 5u);
  const char* argv0[] = {"bench", "--jobs", "0"};
  const bench::Options all =
      bench::parse_options(3, const_cast<char**>(argv0));
  EXPECT_GE(all.jobs, 1u);
}

}  // namespace
}  // namespace radiomc
