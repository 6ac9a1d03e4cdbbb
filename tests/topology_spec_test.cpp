// The textual topology grammar used by the CLI tool.

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/topology_spec.h"
#include "support/rng.h"

namespace radiomc {
namespace {

Graph parse(const std::string& s, std::uint64_t seed = 1) {
  Rng rng(seed);
  return gen::from_spec(s, rng);
}

TEST(TopologySpec, FixedFamilies) {
  EXPECT_EQ(parse("path:7").num_nodes(), 7u);
  EXPECT_EQ(parse("path:7").num_edges(), 6u);
  EXPECT_EQ(parse("cycle:8").num_edges(), 8u);
  EXPECT_EQ(parse("complete:5").num_edges(), 10u);
  EXPECT_EQ(parse("star:9").max_degree(), 8u);
  EXPECT_EQ(parse("grid:3x4").num_nodes(), 12u);
  EXPECT_EQ(parse("torus:3x3").num_edges(), 18u);
  EXPECT_EQ(parse("hypercube:3").num_nodes(), 8u);
  EXPECT_EQ(parse("tree:15:2").num_edges(), 14u);
  EXPECT_EQ(parse("caterpillar:4:2").num_nodes(), 12u);
  EXPECT_EQ(parse("barbell:3:1").num_nodes(), 7u);
}

TEST(TopologySpec, RandomFamiliesAreConnectedAndSeeded) {
  const Graph a = parse("gnp:20:0.3", 42);
  const Graph b = parse("gnp:20:0.3", 42);
  EXPECT_TRUE(is_connected(a));
  EXPECT_EQ(a.edge_list(), b.edge_list());  // deterministic per seed
  const Graph c = parse("random-tree:25", 7);
  EXPECT_EQ(c.num_edges(), 24u);
  const Graph d = parse("udg:30", 9);
  EXPECT_TRUE(is_connected(d));
  const Graph e = parse("udg:30:0.9", 9);
  EXPECT_TRUE(is_connected(e));
}

std::string rejection(const std::string& spec) {
  try {
    parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("pathway:5"), std::invalid_argument);
  EXPECT_THROW(parse("path"), std::invalid_argument);
  EXPECT_THROW(parse("path:abc"), std::invalid_argument);
  EXPECT_THROW(parse("grid:4"), std::invalid_argument);
  EXPECT_THROW(parse("grid:4x"), std::invalid_argument);
  EXPECT_THROW(parse("gnp:10"), std::invalid_argument);
  EXPECT_THROW(parse("gnp:10:x"), std::invalid_argument);
  EXPECT_THROW(parse("tree:10"), std::invalid_argument);
  EXPECT_THROW(parse("path:5:9"), std::invalid_argument);
  // Signs, whitespace, junk and overflow name the field; a negative
  // dimension used to wrap to 2^64-1 and die in bad_alloc.
  EXPECT_EQ(rejection("grid:-1x4"), "topology spec: bad rows '-1'");
  EXPECT_EQ(rejection("grid:4x+4"), "topology spec: bad cols '+4'");
  EXPECT_EQ(rejection("path: 5"), "topology spec: bad n ' 5'");
  EXPECT_EQ(rejection("path:5k"), "topology spec: bad n '5k'");
  EXPECT_EQ(rejection("path:18446744073709551616"),
            "topology spec: bad n '18446744073709551616'");
  EXPECT_EQ(rejection("gnp:10:inf"), "topology spec: bad p 'inf'");
  EXPECT_EQ(rejection("udg:30:1e999"), "topology spec: bad radius '1e999'");
}

TEST(TopologySpec, GrammarMentionsEveryFamily) {
  const std::string g = gen::spec_grammar();
  for (const char* fam :
       {"path", "cycle", "complete", "star", "grid", "torus", "hypercube",
        "tree", "random-tree", "caterpillar", "barbell", "gnp", "udg"})
    EXPECT_NE(g.find(fam), std::string::npos) << fam;
}

}  // namespace
}  // namespace radiomc
