#include "core/bisim.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "pipeline_oracle.h"
#include "test_util.h"

namespace rdfalign {
namespace {

TEST(BisimTest, Figure2NodesB2B3AreBisimilar) {
  TripleGraph g = testing::Fig2Graph();
  Partition p = BisimPartition(g);
  NodeId b1 = g.FindBlank("b1");
  NodeId b2 = g.FindBlank("b2");
  NodeId b3 = g.FindBlank("b3");
  EXPECT_EQ(p.ColorOf(b2), p.ColorOf(b3));
  EXPECT_NE(p.ColorOf(b1), p.ColorOf(b2));
  EXPECT_TRUE(AreBisimilar(g, b2, b3));
  EXPECT_FALSE(AreBisimilar(g, b1, b2));
}

TEST(BisimTest, IdentityIsAlwaysABisimulation) {
  TripleGraph g = testing::Fig2Graph();
  std::vector<std::pair<NodeId, NodeId>> identity;
  for (NodeId n = 0; n < g.NumNodes(); ++n) identity.emplace_back(n, n);
  EXPECT_TRUE(IsBisimulation(g, identity));
}

TEST(BisimTest, NonBisimilarPairIsRejectedByChecker) {
  TripleGraph g = testing::Fig2Graph();
  std::vector<std::pair<NodeId, NodeId>> rel;
  for (NodeId n = 0; n < g.NumNodes(); ++n) rel.emplace_back(n, n);
  rel.emplace_back(g.FindBlank("b1"), g.FindBlank("b2"));
  EXPECT_FALSE(IsBisimulation(g, rel));
}

TEST(BisimTest, BruteForceResultIsABisimulationAndEquivalence) {
  TripleGraph g = testing::Fig2Graph();
  auto rel = MaximalBisimulationBruteForce(g);
  EXPECT_TRUE(IsBisimulation(g, rel));
  std::set<std::pair<NodeId, NodeId>> set(rel.begin(), rel.end());
  // Reflexive, symmetric, transitive.
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_TRUE(set.count({n, n}) > 0);
  }
  for (const auto& [a, b] : rel) {
    EXPECT_TRUE(set.count({b, a}) > 0);
    for (const auto& [c, d] : rel) {
      if (b == c) EXPECT_TRUE(set.count({a, d}) > 0);
    }
  }
}

// Proposition 1: the refinement fixpoint equals the maximal bisimulation.
class Proposition1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Proposition1Test, RefinementMatchesBruteForce) {
  testing::RandomGraphOptions options;
  options.seed = GetParam();
  options.uris = 6 + GetParam() % 4;
  options.literals = 4;
  options.blanks = 6 + GetParam() % 4;  // blanks make bisimilarity possible
  options.edges = 18 + GetParam() % 20;
  options.predicates = 2;
  TripleGraph g = testing::RandomGraph(options);

  Partition p = BisimPartition(g);
  std::set<std::pair<NodeId, NodeId>> from_partition;
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      if (p.ColorOf(a) == p.ColorOf(b)) from_partition.emplace(a, b);
    }
  }
  auto brute = MaximalBisimulationBruteForce(g);
  std::set<std::pair<NodeId, NodeId>> from_brute(brute.begin(), brute.end());
  EXPECT_EQ(from_partition, from_brute)
      << "Proposition 1 violated for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Proposition1Test,
                         ::testing::Range<uint64_t>(1, 17));

TEST(BisimTest, UnionOfBisimulationsIsABisimulation) {
  TripleGraph g = testing::Fig2Graph();
  NodeId b2 = g.FindBlank("b2");
  NodeId b3 = g.FindBlank("b3");
  std::vector<std::pair<NodeId, NodeId>> r1;
  for (NodeId n = 0; n < g.NumNodes(); ++n) r1.emplace_back(n, n);
  // r2 must relate the predicate and object nodes reachable from b2/b3 as
  // well — Definition 2 matches out-pairs within the relation itself.
  NodeId q = g.FindUri("ex:q");
  NodeId la = g.FindLiteral("a");
  std::vector<std::pair<NodeId, NodeId>> r2 = {
      {b2, b3}, {b3, b2}, {b2, b2}, {b3, b3}, {q, q}, {la, la}};
  ASSERT_TRUE(IsBisimulation(g, r1));
  ASSERT_TRUE(IsBisimulation(g, r2));
  std::vector<std::pair<NodeId, NodeId>> merged = r1;
  merged.insert(merged.end(), r2.begin(), r2.end());
  EXPECT_TRUE(IsBisimulation(g, merged));
}

}  // namespace
}  // namespace rdfalign
