// End-to-end encodings of the paper's worked examples (Figs. 1-8,
// Examples 1-6). These are the ground-truth fixtures for the whole method
// stack: if one of these fails, the reproduction has diverged from the
// paper.

#include <gtest/gtest.h>

#include "core/aligner.h"
#include "core/bisim.h"
#include "core/deblank.h"
#include "core/hybrid.h"
#include "core/sigma_edit.h"
#include "pipeline_oracle.h"
#include "test_util.h"

namespace rdfalign {
namespace {

// --- Example 1 / Figure 1 -------------------------------------------------

TEST(Example1, TrivialAlignsLabelEqualNodes) {
  auto [v1, v2] = testing::Fig1Graphs();
  auto cg = testing::Combine(v1, v2);
  Partition p = TrivialPartition(cg.graph());
  const TripleGraph& g = cg.graph();
  // "a majority of literals and one URI, ss, can be trivially aligned".
  auto sides = ComputeClassSides(cg, p);
  EXPECT_EQ(sides[p.ColorOf(g.FindUri("ex:ss"))], ClassSides::kBoth);
  EXPECT_EQ(sides[p.ColorOf(g.FindLiteral("Edinburgh"))], ClassSides::kBoth);
  EXPECT_EQ(sides[p.ColorOf(g.FindLiteral("EH8"))], ClassSides::kBoth);
  // The address blanks are not trivially aligned.
  EXPECT_NE(sides[p.ColorOf(g.FindBlank("b1"))], ClassSides::kBoth);
}

TEST(Example1, BisimulationAlignsAddressRecordAndUniversity) {
  auto [v1, v2] = testing::Fig1Graphs();
  auto cg = testing::Combine(v1, v2);
  const TripleGraph& g = cg.graph();
  // "Bisimulation aligns the blank nodes b1 and b3 because they represent
  // a record with the same information structured in the same manner."
  Partition deblank = DeblankPartition(cg);
  EXPECT_EQ(deblank.ColorOf(g.FindBlank("b1")),
            deblank.ColorOf(g.FindBlank("b3")));
  // "Similarly, bisimulation aligns the nodes ed-uni and uoe" — that part
  // needs the hybrid method (different URI labels).
  Partition hybrid = HybridPartition(cg);
  EXPECT_EQ(hybrid.ColorOf(g.FindUri("ex:ed-uni")),
            hybrid.ColorOf(g.FindUri("ex:uoe")));
  // "bisimulation does not align the nodes b2 and b4" (the name records
  // with the edited first name).
  EXPECT_NE(hybrid.ColorOf(g.FindBlank("b2")),
            hybrid.ColorOf(g.FindBlank("b4")));
}

TEST(Example1, SimilarityMeasureAlignsTheNameRecords) {
  auto [v1, v2] = testing::Fig1Graphs();
  auto cg = testing::Combine(v1, v2);
  const TripleGraph& g = cg.graph();
  Partition hybrid = HybridPartition(cg);
  auto se = SigmaEdit::Compute(cg, hybrid);
  ASSERT_TRUE(se.ok());
  // σEdit aligns b2 with b4 at a moderate threshold.
  auto pairs = se->AlignAt(0.55);
  bool aligned = false;
  for (auto [a, b] : pairs) {
    if (a == g.FindBlank("b2") && b == g.FindBlank("b4")) aligned = true;
  }
  EXPECT_TRUE(aligned);
}

// --- Example 2 / Figures 2 and 4 -------------------------------------------

TEST(Example2, FixpointColorsOfFigure4) {
  TripleGraph g = testing::Fig2Graph();
  // λ0 = ℓG: b1, b2, b3 share the blank color.
  Partition l0 = LabelPartition(g);
  EXPECT_EQ(l0.ColorOf(g.FindBlank("b1")), l0.ColorOf(g.FindBlank("b2")));
  // "after the first iteration they are split into two separate classes"
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  Partition l1 = BisimRefineStep(g, l0, all);
  EXPECT_NE(l1.ColorOf(g.FindBlank("b1")), l1.ColorOf(g.FindBlank("b2")));
  EXPECT_EQ(l1.ColorOf(g.FindBlank("b2")), l1.ColorOf(g.FindBlank("b3")));
  // "Since the partition λ2 is the same as the previous partition λ1, the
  // end result is λ1."
  Partition l2 = BisimRefineStep(g, l1, all);
  EXPECT_TRUE(Partition::Equivalent(l1, l2));
  RefinementStats stats;
  Partition fix = BisimRefineFixpoint(g, l0, all, &stats);
  EXPECT_TRUE(Partition::Equivalent(fix, l1));
}

// --- Example 3 / Figures 3 and 5 -------------------------------------------

TEST(Example3, DeblankColorsOfFigure5) {
  auto [g1, g2] = testing::Fig3Graphs();
  auto cg = testing::Combine(g1, g2);
  const TripleGraph& g = cg.graph();
  Partition p = DeblankPartition(cg);
  // "both the nodes b2 and b3 are aligned to b4"
  EXPECT_EQ(p.ColorOf(g.FindBlank("b2")), p.ColorOf(g.FindBlank("b4")));
  EXPECT_EQ(p.ColorOf(g.FindBlank("b3")), p.ColorOf(g.FindBlank("b4")));
  // "the node b1 is not aligned to b5 because their colors differ"
  EXPECT_NE(p.ColorOf(g.FindBlank("b1")), p.ColorOf(g.FindBlank("b5")));
}

// --- Example 4 / Figure 6 ---------------------------------------------------

TEST(Example4, HybridColorsOfFigure6) {
  auto [g1, g2] = testing::Fig3Graphs();
  auto cg = testing::Combine(g1, g2);
  const TripleGraph& g = cg.graph();
  Partition p = HybridPartition(cg);
  // "the final colors of nodes u and v coincide and therefore these two
  // nodes are aligned by Hybrid. Similarly, Hybrid aligns the blank nodes
  // b1 and b5."
  EXPECT_EQ(p.ColorOf(g.FindUri("ex:u")), p.ColorOf(g.FindUri("ex:v")));
  EXPECT_EQ(p.ColorOf(g.FindBlank("b1")), p.ColorOf(g.FindBlank("b5")));
  // Previously aligned pairs are kept.
  EXPECT_EQ(p.ColorOf(g.FindBlank("b2")), p.ColorOf(g.FindBlank("b4")));
}

TEST(Example4, ProperHierarchyOnFigure3) {
  auto [g1, g2] = testing::Fig3Graphs();
  auto cg = testing::Combine(g1, g2);
  EdgeAlignmentStats trivial =
      ComputeEdgeAlignment(cg, TrivialPartition(cg.graph()));
  EdgeAlignmentStats deblank = ComputeEdgeAlignment(cg, DeblankPartition(cg));
  EdgeAlignmentStats hybrid = ComputeEdgeAlignment(cg, HybridPartition(cg));
  EXPECT_LT(trivial.aligned_edges, deblank.aligned_edges);
  EXPECT_LT(deblank.aligned_edges, hybrid.aligned_edges);
  // Hybrid aligns every edge of Figure 3's union.
  EXPECT_DOUBLE_EQ(hybrid.Ratio(), 1.0);
}

// --- Example 5 / Figure 7 ---------------------------------------------------

TEST(Example5, AllFourDistances) {
  auto [g1, g2] = testing::Fig7Graphs();
  auto cg = testing::Combine(g1, g2);
  const TripleGraph& g = cg.graph();
  auto se = SigmaEdit::Compute(cg, HybridPartition(cg));
  ASSERT_TRUE(se.ok());
  NodeId abc = g.FindLiteral("abc");
  NodeId ac = kInvalidNode;
  for (NodeId n = cg.n1(); n < g.NumNodes(); ++n) {
    if (g.IsLiteral(n) && g.Lexical(n) == "ac") ac = n;
  }
  ASSERT_NE(ac, kInvalidNode);
  EXPECT_NEAR(se->Distance(abc, ac), 1.0 / 3, 1e-9);
  EXPECT_NEAR(se->Distance(g.FindUri("ex:u"), g.FindUri("ex:u2")), 1.0 / 3,
              1e-9);
  EXPECT_NEAR(se->Distance(g.FindUri("ex:v"), g.FindUri("ex:v2")), 1.0 / 6,
              1e-9);
  EXPECT_NEAR(se->Distance(g.FindUri("ex:w"), g.FindUri("ex:w2")), 1.0 / 4,
              1e-9);
}

// --- Example 6 / Figure 8 ---------------------------------------------------

TEST(Example6, WeightedPartitionApproximatesSigmaEdit) {
  // Figure 8's hand-built weighted partition: distances 1/3 between
  // "abc"/"ac" and 1/4 between w/w2 under the ⊕ combination.
  WeightedPartition xi;
  // clusters: {abc, ac} and {w, w2}.
  xi.partition = Partition::FromColors({0, 0, 1, 1});
  xi.weight = {2.0 / 9, 1.0 / 9, 2.0 / 9, 1.0 / 36};
  EXPECT_DOUBLE_EQ(xi.Distance(0, 1), 1.0 / 3);
  EXPECT_DOUBLE_EQ(xi.Distance(2, 3), 1.0 / 4);
  // "for the nodes u and v′ the weighted partition defines distance 1
  // because those nodes are in different clusters."
  EXPECT_DOUBLE_EQ(xi.Distance(0, 2), 1.0);
}

// --- Aligner facade over the examples ---------------------------------------

TEST(AlignerFacade, MethodsRankAsExpectedOnFig3) {
  auto [g1, g2] = testing::Fig3Graphs();
  size_t previous = 0;
  for (AlignMethod m : {AlignMethod::kTrivial, AlignMethod::kDeblank,
                        AlignMethod::kHybrid, AlignMethod::kOverlap}) {
    AlignerOptions options;
    options.method = m;
    Aligner aligner(options);
    auto outcome = aligner.Align(g1, g2);
    ASSERT_TRUE(outcome.ok()) << AlignMethodToString(m);
    EXPECT_GE(outcome->edge_stats.aligned_edges, previous)
        << AlignMethodToString(m);
    previous = outcome->edge_stats.aligned_edges;
  }
}

}  // namespace
}  // namespace rdfalign
