// Tests of the alignment-method family (§3): Deblank, Hybrid, and their
// hierarchy/equivalence properties.

#include <gtest/gtest.h>

#include <set>

#include "core/alignment.h"
#include "core/deblank.h"
#include "core/hybrid.h"
#include "pipeline_oracle.h"
#include "test_util.h"

namespace rdfalign {
namespace {

std::set<std::pair<NodeId, NodeId>> AlignSet(const CombinedGraph& cg,
                                             const Partition& p) {
  auto pairs = EnumerateAlignedPairs(cg, p);
  return {pairs.begin(), pairs.end()};
}

TEST(DeblankTest, AlignsMergedBlanksInFig3) {
  auto [g1, g2] = testing::Fig3Graphs();
  auto cg = testing::Combine(g1, g2);
  Partition p = DeblankPartition(cg);
  NodeId b2 = cg.graph().FindBlank("b2");
  NodeId b3 = cg.graph().FindBlank("b3");
  NodeId b4 = cg.graph().FindBlank("b4");
  NodeId b1 = cg.graph().FindBlank("b1");
  NodeId b5 = cg.graph().FindBlank("b5");
  EXPECT_EQ(p.ColorOf(b2), p.ColorOf(b4));
  EXPECT_EQ(p.ColorOf(b3), p.ColorOf(b4));
  // b1 reaches the renamed URI, so deblanking cannot align it with b5.
  EXPECT_NE(p.ColorOf(b1), p.ColorOf(b5));
}

TEST(HybridTest, AlignsRenamedUriAndDependentBlankInFig3) {
  auto [g1, g2] = testing::Fig3Graphs();
  auto cg = testing::Combine(g1, g2);
  Partition p = HybridPartition(cg);
  NodeId u = cg.graph().FindUri("ex:u");
  NodeId v = cg.graph().FindUri("ex:v");
  NodeId b1 = cg.graph().FindBlank("b1");
  NodeId b5 = cg.graph().FindBlank("b5");
  EXPECT_EQ(p.ColorOf(u), p.ColorOf(v));
  EXPECT_EQ(p.ColorOf(b1), p.ColorOf(b5));
  // And the deblank alignments are preserved.
  EXPECT_EQ(p.ColorOf(cg.graph().FindBlank("b2")),
            p.ColorOf(cg.graph().FindBlank("b4")));
}

TEST(HierarchyTest, TrivialSubsetDeblankSubsetHybridOnFig3) {
  auto [g1, g2] = testing::Fig3Graphs();
  auto cg = testing::Combine(g1, g2);
  auto trivial = AlignSet(cg, TrivialPartition(cg.graph()));
  auto deblank = AlignSet(cg, DeblankPartition(cg));
  auto hybrid = AlignSet(cg, HybridPartition(cg));
  EXPECT_TRUE(std::includes(deblank.begin(), deblank.end(), trivial.begin(),
                            trivial.end()));
  EXPECT_TRUE(std::includes(hybrid.begin(), hybrid.end(), deblank.begin(),
                            deblank.end()));
  EXPECT_LT(trivial.size(), deblank.size());
  EXPECT_LT(deblank.size(), hybrid.size());
}

TEST(HybridTest, TrivialStartYieldsSamePartitionOnFig3) {
  // §3.4: "Using λTrivial instead of λDeblank above yields the same result."
  auto [g1, g2] = testing::Fig3Graphs();
  auto cg = testing::Combine(g1, g2);
  Partition from_deblank =
      oracle::HybridPartitionFromBase(cg, DeblankPartition(cg));
  Partition from_trivial =
      oracle::HybridPartitionFromBase(cg, TrivialPartition(cg.graph()));
  EXPECT_EQ(AlignSet(cg, from_deblank), AlignSet(cg, from_trivial));
}

// Property sweep over random evolving pairs.
class MethodHierarchyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MethodHierarchyProperty, AlignmentsFormAHierarchy) {
  auto [g1, g2] = testing::RandomEvolvingPair(GetParam());
  auto cg = testing::Combine(g1, g2);
  auto trivial = AlignSet(cg, TrivialPartition(cg.graph()));
  auto deblank = AlignSet(cg, DeblankPartition(cg));
  auto hybrid = AlignSet(cg, HybridPartition(cg));
  EXPECT_TRUE(std::includes(deblank.begin(), deblank.end(), trivial.begin(),
                            trivial.end()))
      << "Trivial ⊄ Deblank at seed " << GetParam();
  EXPECT_TRUE(std::includes(hybrid.begin(), hybrid.end(), deblank.begin(),
                            deblank.end()))
      << "Deblank ⊄ Hybrid at seed " << GetParam();
}

TEST_P(MethodHierarchyProperty, TrivialAndDeblankStartsAgree) {
  auto [g1, g2] = testing::RandomEvolvingPair(GetParam());
  auto cg = testing::Combine(g1, g2);
  Partition a = oracle::HybridPartitionFromBase(cg, DeblankPartition(cg));
  Partition b =
      oracle::HybridPartitionFromBase(cg, TrivialPartition(cg.graph()));
  EXPECT_EQ(AlignSet(cg, a), AlignSet(cg, b)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MethodHierarchyProperty,
                         ::testing::Range<uint64_t>(1, 11));

TEST(HybridTest, SinkUrisMergeDeliberately) {
  // The known failure mode (§5.1): URIs used only as predicates have empty
  // out-neighborhoods, so hybrid merges unaligned sinks across versions.
  auto dict = std::make_shared<Dictionary>();
  GraphBuilder b1(dict);
  b1.AddLiteralTriple("ex:s", "ex:only-in-v1", "x");
  GraphBuilder b2(dict);
  b2.AddLiteralTriple("ex:s", "ex:only-in-v2", "x");
  auto g1 = std::move(b1.Build(true)).value();
  auto g2 = std::move(b2.Build(true)).value();
  auto cg = testing::Combine(g1, g2);
  Partition p = HybridPartition(cg);
  NodeId p1 = cg.graph().FindUri("ex:only-in-v1");
  NodeId p2 = cg.graph().FindUri("ex:only-in-v2");
  EXPECT_EQ(p.ColorOf(p1), p.ColorOf(p2));
}

TEST(DeblankTest, DistinguishesBlanksByContents) {
  auto dict = std::make_shared<Dictionary>();
  GraphBuilder b1(dict);
  {
    NodeId s = b1.AddUri("ex:s");
    NodeId p = b1.AddUri("ex:p");
    NodeId rec = b1.AddBlank("r1");
    b1.AddTriple(s, p, rec);
    b1.AddTriple(rec, b1.AddUri("ex:k"), b1.AddLiteral("v1"));
  }
  GraphBuilder b2(dict);
  {
    NodeId s = b2.AddUri("ex:s");
    NodeId p = b2.AddUri("ex:p");
    NodeId rec = b2.AddBlank("r2");
    b2.AddTriple(s, p, rec);
    b2.AddTriple(rec, b2.AddUri("ex:k"), b2.AddLiteral("v2"));  // different
  }
  auto g1 = std::move(b1.Build(true)).value();
  auto g2 = std::move(b2.Build(true)).value();
  auto cg = testing::Combine(g1, g2);
  Partition p = DeblankPartition(cg);
  EXPECT_NE(p.ColorOf(cg.graph().FindBlank("r1")),
            p.ColorOf(cg.graph().FindBlank("r2")));
}

}  // namespace
}  // namespace rdfalign
