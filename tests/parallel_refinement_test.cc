// Determinism of chunked signing: the worklist engine must produce
// bit-identical partitions and telemetry for every signing-thread count and
// across repeated runs. The graphs are sized so the first round spans
// several internal::kSignGrain chunks, which is what puts the pool to work
// at threads > 1; every test asserts that width.

#include <gtest/gtest.h>

#include <utility>

#include "core/bisim.h"
#include "core/context.h"
#include "core/hybrid.h"
#include "core/refinement.h"
#include "core/worklist_engine.h"
#include "test_util.h"

namespace rdfalign {
namespace {

using internal::kSignGrain;

RefinementOptions Par(size_t threads) {
  RefinementOptions options;
  options.threads = threads;
  return options;
}

std::vector<NodeId> AllNodes(const TripleGraph& g) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  return all;
}

// Random-graph shape with about 14k nodes: a first round over all of them
// is four signing chunks.
testing::RandomGraphOptions WideOptions(uint64_t seed) {
  testing::RandomGraphOptions options;
  options.seed = seed;
  options.uris = 4000 + seed % 15 * 40;
  options.literals = 2000 + seed % 7 * 30;
  options.blanks = 8000 + seed % 10 * 50;
  options.edges = 24000 + seed % 80 * 100;
  options.predicates = 2 + seed % 5;
  return options;
}

void ExpectWideFirstRound(const RefinementStats& stats) {
  ASSERT_FALSE(stats.dirty_per_iteration.empty());
  EXPECT_GT(stats.dirty_per_iteration.front(), 3 * kSignGrain);
}

class ParallelDeterminismProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminismProperty, ThreadCountsProduceIdenticalPartitions) {
  TripleGraph g = testing::RandomGraph(WideOptions(GetParam() * 131));
  const std::vector<NodeId> all = AllNodes(g);

  RefinementStats base_stats;
  Partition base =
      BisimRefineFixpoint(g, LabelPartition(g), all, &base_stats, Par(1));
  ExpectWideFirstRound(base_stats);

  for (size_t threads : {2u, 3u, 4u, 8u}) {
    RefinementStats stats;
    Partition p =
        BisimRefineFixpoint(g, LabelPartition(g), all, &stats, Par(threads));
    EXPECT_EQ(p.colors(), base.colors()) << "threads=" << threads;
    // The whole telemetry must match: same rounds, same worklists, same
    // signing work — parallelism only changes who builds the signature.
    EXPECT_EQ(stats.iterations, base_stats.iterations);
    EXPECT_EQ(stats.dirty_per_iteration, base_stats.dirty_per_iteration);
    EXPECT_EQ(stats.signature_bytes, base_stats.signature_bytes);
    EXPECT_EQ(stats.final_classes, base_stats.final_classes);
    EXPECT_EQ(stats.threads_used, threads);
  }
}

TEST_P(ParallelDeterminismProperty, KeyedAndContextualAcrossThreadCounts) {
  const uint64_t seed = GetParam();
  TripleGraph g = testing::RandomGraph(WideOptions(seed * 613));
  const std::vector<NodeId> all = AllNodes(g);

  std::vector<uint8_t> mask(g.NumNodes(), 0);
  for (const Triple& t : g.triples()) {
    if ((g.LexicalId(t.p) + seed) % 2 == 0) mask[t.p] = 1;
  }
  RefinementStats keyed_stats;
  Partition keyed1 =
      BisimRefineFixpointKeyed(g, LabelPartition(g), all, mask, &keyed_stats,
                               Par(1));
  ExpectWideFirstRound(keyed_stats);

  std::vector<uint8_t> predicate_only(g.NumNodes(), 0);
  for (NodeId n : PredicateOnlyUris(g)) predicate_only[n] = 1;
  MediationIndex mediation(g);
  Partition ctx1 = ContextualRefineFixpoint(g, LabelPartition(g), all,
                                            mediation, predicate_only,
                                            nullptr, Par(1));

  for (size_t threads : {2u, 4u, 8u}) {
    Partition keyed =
        BisimRefineFixpointKeyed(g, LabelPartition(g), all, mask, nullptr,
                                 Par(threads));
    EXPECT_EQ(keyed.colors(), keyed1.colors()) << "threads=" << threads;
    Partition ctx = ContextualRefineFixpoint(g, LabelPartition(g), all,
                                             mediation, predicate_only,
                                             nullptr, Par(threads));
    EXPECT_EQ(ctx.colors(), ctx1.colors()) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismProperty,
                         ::testing::Range<uint64_t>(1, 21));

TEST(ParallelRefinementTest, RepeatedRunsAreStable) {
  auto [g1, g2] = testing::RandomEvolvingPair(7, WideOptions(7));
  CombinedGraph cg = testing::Combine(g1, g2);
  RefinementStats stats;
  Partition first = HybridPartition(cg, &stats, Par(4));
  ExpectWideFirstRound(stats);
  for (int run = 0; run < 4; ++run) {
    Partition again = HybridPartition(cg, nullptr, Par(4));
    EXPECT_EQ(again.colors(), first.colors()) << "run " << run;
  }
  // And the parallel result matches the default sequential configuration.
  Partition sequential = HybridPartition(cg);
  EXPECT_EQ(first.colors(), sequential.colors());
}

TEST(ParallelRefinementTest, AutoThreadCountMatchesSequential) {
  TripleGraph g = testing::RandomGraph(WideOptions(5));
  const std::vector<NodeId> all = AllNodes(g);
  RefinementStats stats;
  Partition auto_threads =
      BisimRefineFixpoint(g, LabelPartition(g), all, &stats, Par(0));
  ExpectWideFirstRound(stats);
  Partition sequential =
      BisimRefineFixpoint(g, LabelPartition(g), all, nullptr, Par(1));
  EXPECT_EQ(auto_threads.colors(), sequential.colors());
  // threads=0 resolves to a concrete worker count.
  EXPECT_GE(stats.threads_used, 1u);
}

TEST(ParallelRefinementTest, FirstRoundTimingIsReported) {
  auto [g1, g2] = testing::RandomEvolvingPair(3, WideOptions(3));
  CombinedGraph cg = testing::Combine(g1, g2);
  RefinementStats stats;
  HybridPartition(cg, &stats, Par(2));
  ExpectWideFirstRound(stats);
  EXPECT_GE(stats.first_round_ms, 0.0);
  EXPECT_EQ(stats.threads_used, 2u);
  EXPECT_GT(stats.signature_bytes, 0u);
}

TEST(ParallelRefinementTest, NarrowRoundsAreOneInlineChunk) {
  // Every round of a test-sized graph fits one chunk, so requesting
  // threads must not change anything.
  TripleGraph g = testing::Fig2Graph();
  const std::vector<NodeId> all = AllNodes(g);
  RefinementStats stats;
  Partition p = BisimRefineFixpoint(g, LabelPartition(g), all, &stats, Par(8));
  ASSERT_FALSE(stats.dirty_per_iteration.empty());
  EXPECT_LE(stats.dirty_per_iteration.front(), kSignGrain);
  Partition q = BisimRefineFixpoint(g, LabelPartition(g), all);
  EXPECT_EQ(p.colors(), q.colors());
}

}  // namespace
}  // namespace rdfalign
