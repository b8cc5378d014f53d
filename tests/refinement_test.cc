#include "core/refinement.h"

#include <gtest/gtest.h>

#include "pipeline_oracle.h"
#include "test_util.h"

namespace rdfalign {
namespace {

std::vector<NodeId> AllNodes(const TripleGraph& g) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  return all;
}

TEST(RefineStepTest, SplitsByOutNeighborhood) {
  // Figure 4's first iteration: b1, b2, b3 start together; b2/b3 split off
  // from b1 after one step.
  TripleGraph g = testing::Fig2Graph();
  Partition p0 = LabelPartition(g);
  Partition p1 = BisimRefineStep(g, p0, AllNodes(g));
  NodeId b1 = g.FindBlank("b1");
  NodeId b2 = g.FindBlank("b2");
  NodeId b3 = g.FindBlank("b3");
  EXPECT_EQ(p0.ColorOf(b1), p0.ColorOf(b2));
  EXPECT_NE(p1.ColorOf(b1), p1.ColorOf(b2));
  EXPECT_EQ(p1.ColorOf(b2), p1.ColorOf(b3));
  EXPECT_TRUE(Partition::IsFinerOrEqual(p1, p0));
}

TEST(RefineStepTest, RecoloredAndKeptNodesNeverMerge) {
  TripleGraph g = testing::Fig2Graph();
  Partition p0 = LabelPartition(g);
  // Refine only b1; b2/b3 keep the shared blank color, b1 must leave it.
  Partition p1 = BisimRefineStep(g, p0, {g.FindBlank("b1")});
  EXPECT_NE(p1.ColorOf(g.FindBlank("b1")), p1.ColorOf(g.FindBlank("b2")));
  EXPECT_EQ(p1.ColorOf(g.FindBlank("b2")), p1.ColorOf(g.FindBlank("b3")));
}

TEST(RefineStepTest, EmptySubsetIsEquivalentIdentity) {
  TripleGraph g = testing::Fig2Graph();
  Partition p0 = LabelPartition(g);
  Partition p1 = BisimRefineStep(g, p0, {});
  EXPECT_TRUE(Partition::Equivalent(p0, p1));
}

TEST(RefineStepTest, SinkNodesKeepStableIdentity) {
  // A node with no outgoing edges keeps essentially the same color through
  // all iterations (Example 2's remark).
  TripleGraph g = testing::Fig2Graph();
  Partition p = LabelPartition(g);
  NodeId lit_a = g.FindLiteral("a");
  NodeId lit_b = g.FindLiteral("b");
  for (int i = 0; i < 3; ++i) {
    Partition next = BisimRefineStep(g, p, AllNodes(g));
    // Both literals remain singletons and distinct.
    EXPECT_NE(next.ColorOf(lit_a), next.ColorOf(lit_b));
    p = std::move(next);
  }
}

TEST(RefineFixpointTest, StabilizesAndReportsStats) {
  TripleGraph g = testing::Fig2Graph();
  RefinementStats stats;
  Partition fix = BisimRefineFixpoint(g, LabelPartition(g), AllNodes(g),
                                      &stats);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_EQ(stats.final_classes, fix.NumColors());
  EXPECT_GE(stats.final_classes, stats.initial_classes);
  // Applying one more step changes nothing.
  Partition again = BisimRefineStep(g, fix, AllNodes(g));
  EXPECT_TRUE(Partition::Equivalent(fix, again));
}

TEST(RefineFixpointTest, Example2FixpointReachedAfterOneSplit) {
  // In Example 2 λ2 ≡ λ1: the process stabilizes after the first split.
  TripleGraph g = testing::Fig2Graph();
  Partition p1 = BisimRefineStep(g, LabelPartition(g), AllNodes(g));
  Partition p2 = BisimRefineStep(g, p1, AllNodes(g));
  EXPECT_TRUE(Partition::Equivalent(p1, p2));
}

TEST(RefineFixpointTest, HandlesCyclesWithoutDivergence) {
  // Two 3-cycles of blanks with identical labels must stay merged; a cycle
  // with one literal attached must split off.
  GraphBuilder b;
  NodeId p = b.AddUri("ex:p");
  NodeId q = b.AddUri("ex:q");
  NodeId c1[3] = {b.AddBlank("x0"), b.AddBlank("x1"), b.AddBlank("x2")};
  NodeId c2[3] = {b.AddBlank("y0"), b.AddBlank("y1"), b.AddBlank("y2")};
  for (int i = 0; i < 3; ++i) {
    b.AddTriple(c1[i], p, c1[(i + 1) % 3]);
    b.AddTriple(c2[i], p, c2[(i + 1) % 3]);
  }
  NodeId marked = b.AddBlank("m0");
  NodeId m1 = b.AddBlank("m1");
  b.AddTriple(marked, p, m1);
  b.AddTriple(m1, p, marked);
  b.AddTriple(m1, q, b.AddLiteral("tag"));
  auto g = std::move(b.Build(true)).value();
  RefinementStats stats;
  Partition fix =
      BisimRefineFixpoint(g, LabelPartition(g), AllNodes(g), &stats);
  EXPECT_EQ(fix.ColorOf(g.FindBlank("x0")), fix.ColorOf(g.FindBlank("y0")));
  EXPECT_EQ(fix.ColorOf(g.FindBlank("x0")), fix.ColorOf(g.FindBlank("x1")));
  EXPECT_NE(fix.ColorOf(g.FindBlank("x0")), fix.ColorOf(g.FindBlank("m0")));
  EXPECT_NE(fix.ColorOf(g.FindBlank("m0")), fix.ColorOf(g.FindBlank("m1")));
  EXPECT_LE(stats.iterations, g.NumNodes() + 2);
}

TEST(BlankColorsTest, ResetsSubsetToOneSharedColor) {
  TripleGraph g = testing::Fig2Graph();
  Partition p = TrivialPartition(g);
  NodeId u = g.FindUri("ex:u");
  NodeId w = g.FindUri("ex:w");
  Partition blanked = BlankColors(p, {u, w});
  EXPECT_EQ(blanked.ColorOf(u), blanked.ColorOf(w));
  // Everyone else keeps their grouping.
  EXPECT_NE(blanked.ColorOf(g.FindLiteral("a")),
            blanked.ColorOf(g.FindLiteral("b")));
  // The blank color is fresh: no unrelated node shares it.
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (n != u && n != w) {
      EXPECT_NE(blanked.ColorOf(n), blanked.ColorOf(u));
    }
  }
}

// Property sweep: refinement is monotone (each step finer) and the fixpoint
// is idempotent, over a family of random graphs.
class RefinementPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefinementPropertyTest, MonotoneAndIdempotent) {
  testing::RandomGraphOptions options;
  options.seed = GetParam();
  options.uris = 10 + GetParam() % 7;
  options.blanks = 5 + GetParam() % 5;
  options.edges = 30 + GetParam() % 40;
  TripleGraph g = testing::RandomGraph(options);
  std::vector<NodeId> all = AllNodes(g);

  Partition current = LabelPartition(g);
  for (int i = 0; i < 20; ++i) {
    Partition next = BisimRefineStep(g, current, all);
    ASSERT_TRUE(Partition::IsFinerOrEqual(next, current));
    if (Partition::Equivalent(next, current)) break;
    current = std::move(next);
  }
  Partition fix = BisimRefineFixpoint(g, LabelPartition(g), all);
  EXPECT_TRUE(Partition::Equivalent(fix, current));
  EXPECT_TRUE(Partition::Equivalent(BisimRefineStep(g, fix, all), fix));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace rdfalign
