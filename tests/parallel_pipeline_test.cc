// Bit-identity of every parallel pipeline kernel across thread counts:
// graph building (the parallel edge sort), graph statistics, the disjoint
// union, alignment stats, the alignment-driven delta, the overlap matcher,
// and delta-chain replay must produce byte-identical outputs (and
// identical counters) for threads in {1, 2, 3, 4, 8} and across repeated
// runs — the same contract the refinement suites pin for the worklist
// engine.
//
// The graphs here are deliberately sized so that every chunked kernel
// (grain 2^15) splits its input into at least two chunks, which is what
// puts the work on the pool; each check asserts that precondition.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aligner.h"
#include "core/alignment.h"
#include "core/delta.h"
#include "core/hybrid.h"
#include "core/overlap.h"
#include "rdf/merge.h"
#include "rdf/statistics.h"
#include "store/delta.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace rdfalign {
namespace {

// One element more than a 2^15-element chunk: at least two chunks.
constexpr size_t kTwoChunks = (size_t{1} << 15) + 1;
const size_t kThreadCounts[] = {2, 3, 4, 8};

/// A random RDF graph whose edges split into at least two chunks.
TripleGraph BigRandomGraph(uint64_t seed,
                           std::shared_ptr<Dictionary> dict = nullptr) {
  testing::RandomGraphOptions options;
  options.uris = 6000;
  options.literals = 3000;
  options.blanks = 1500;
  options.edges = 45000;
  options.predicates = 40;
  options.seed = seed * 977 + 13;
  TripleGraph g = testing::RandomGraph(options, std::move(dict));
  EXPECT_GE(g.NumEdges(), kTwoChunks);  // at least two chunks
  return g;
}

::testing::AssertionResult GraphsBitIdentical(const TripleGraph& a,
                                              const TripleGraph& b) {
  if (const char* what = GraphsBitDiffer(a, b)) {
    return ::testing::AssertionFailure() << what << " differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(ParallelPipelineCsr, FromPartsBitIdentical) {
  const TripleGraph g = BigRandomGraph(2);
  // Rebuild from shuffled parts so the parallel sort also has work to do.
  std::vector<Triple> shuffled(g.triples().begin(), g.triples().end());
  std::mt19937_64 rng(99);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  auto base = TripleGraph::FromParts(g.dict_ptr(), g.labels(), shuffled,
                                     /*validate_rdf=*/true, /*threads=*/1);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(GraphsBitIdentical(*base, g));
  for (size_t threads : kThreadCounts) {
    auto built = TripleGraph::FromParts(g.dict_ptr(), g.labels(), shuffled,
                                        /*validate_rdf=*/true, threads);
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_TRUE(GraphsBitIdentical(*built, *base))
        << "threads=" << threads;
  }
}

TEST(ParallelPipelineStats, StatisticsBitIdentical) {
  const TripleGraph g = BigRandomGraph(3);
  const GraphStatistics base = ComputeStatistics(g, /*threads=*/1);
  for (size_t threads : kThreadCounts) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      const GraphStatistics s = ComputeStatistics(g, threads);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " repeat=" + std::to_string(repeat));
      EXPECT_EQ(s.nodes, base.nodes);
      EXPECT_EQ(s.edges, base.edges);
      EXPECT_EQ(s.uris, base.uris);
      EXPECT_EQ(s.literals, base.literals);
      EXPECT_EQ(s.blanks, base.blanks);
      EXPECT_EQ(s.predicate_only_uris, base.predicate_only_uris);
      EXPECT_EQ(s.sinks, base.sinks);
      EXPECT_EQ(s.max_out_degree, base.max_out_degree);
      EXPECT_EQ(s.avg_out_degree, base.avg_out_degree);
    }
  }
}

TEST(ParallelPipelineMerge, CombinedGraphBuildBitIdentical) {
  auto dict = std::make_shared<Dictionary>();
  const TripleGraph g1 = BigRandomGraph(4, dict);
  const TripleGraph g2 = BigRandomGraph(5, dict);
  auto base = CombinedGraph::Build(g1, g2, /*threads=*/1);
  ASSERT_TRUE(base.ok()) << base.status();
  for (size_t threads : kThreadCounts) {
    auto cg = CombinedGraph::Build(g1, g2, threads);
    ASSERT_TRUE(cg.ok()) << cg.status();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(GraphsBitIdentical(cg->graph(), base->graph()));
    EXPECT_EQ(cg->n1(), base->n1());
    EXPECT_EQ(cg->n2(), base->n2());
  }
}

TEST(ParallelPipelineAlign, AlignmentStatsAndDeltaBitIdentical) {
  auto dict = std::make_shared<Dictionary>();
  const TripleGraph g1 = BigRandomGraph(6, dict);
  const TripleGraph g2 = BigRandomGraph(7, dict);
  const CombinedGraph cg = testing::Combine(g1, g2);
  ASSERT_GE(cg.graph().NumEdges(), kTwoChunks);
  const Partition p = HybridPartition(cg);

  const std::vector<ClassSides> sides_1 = ComputeClassSides(cg, p, 1);
  const EdgeAlignmentStats edges_1 = ComputeEdgeAlignment(cg, p, 1);
  const NodeAlignmentStats nodes_1 = ComputeNodeAlignment(cg, p, 1);
  const RdfDelta delta_1 = ComputeDelta(cg, p, 1);
  for (size_t threads : kThreadCounts) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " repeat=" + std::to_string(repeat));
      EXPECT_EQ(ComputeClassSides(cg, p, threads), sides_1);

      const EdgeAlignmentStats e = ComputeEdgeAlignment(cg, p, threads);
      EXPECT_EQ(e.total_edges, edges_1.total_edges);
      EXPECT_EQ(e.aligned_edges, edges_1.aligned_edges);

      const NodeAlignmentStats n = ComputeNodeAlignment(cg, p, threads);
      EXPECT_EQ(n.aligned_classes, nodes_1.aligned_classes);
      EXPECT_EQ(n.aligned_source_nodes, nodes_1.aligned_source_nodes);
      EXPECT_EQ(n.aligned_target_nodes, nodes_1.aligned_target_nodes);
      EXPECT_EQ(n.unaligned_source_nodes, nodes_1.unaligned_source_nodes);
      EXPECT_EQ(n.unaligned_target_nodes, nodes_1.unaligned_target_nodes);

      const RdfDelta d = ComputeDelta(cg, p, threads);
      EXPECT_EQ(d.deleted, delta_1.deleted);
      EXPECT_EQ(d.added, delta_1.added);
      EXPECT_EQ(d.unchanged, delta_1.unchanged);
      ASSERT_EQ(d.renamed_uris.size(), delta_1.renamed_uris.size());
      for (size_t i = 0; i < d.renamed_uris.size(); ++i) {
        EXPECT_EQ(d.renamed_uris[i].source, delta_1.renamed_uris[i].source);
        EXPECT_EQ(d.renamed_uris[i].target, delta_1.renamed_uris[i].target);
        EXPECT_EQ(d.renamed_uris[i].source_uri,
                  delta_1.renamed_uris[i].source_uri);
        EXPECT_EQ(d.renamed_uris[i].target_uri,
                  delta_1.renamed_uris[i].target_uri);
      }
    }
  }
}

TEST(ParallelPipelineOverlap, OverlapMatchEdgesAndCountersBitIdentical) {
  // Synthetic characterizing sets large enough to split into several probe
  // chunks (grain 256); sigma is a pure function of the index pair.
  const size_t na = 1200;
  const size_t nb = 1100;
  std::mt19937_64 rng(1234);
  std::vector<NodeId> a_nodes(na);
  std::vector<NodeId> b_nodes(nb);
  for (size_t i = 0; i < na; ++i) a_nodes[i] = static_cast<NodeId>(i);
  for (size_t i = 0; i < nb; ++i) b_nodes[i] = static_cast<NodeId>(na + i);
  auto random_set = [&rng]() {
    std::vector<uint64_t> set(3 + rng() % 8);
    for (uint64_t& v : set) v = rng() % 3000;
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    return set;
  };
  CharacterizingSets a_char;
  CharacterizingSets b_char;
  for (size_t i = 0; i < na; ++i) a_char.push_back(random_set());
  for (size_t i = 0; i < nb; ++i) b_char.push_back(random_set());
  auto sigma = [](size_t ai, size_t bi) {
    return static_cast<double>((ai * 31 + bi * 17) % 97) / 100.0;
  };

  OverlapMatchStats stats_1;
  const BipartiteMatching base =
      OverlapMatch(a_nodes, b_nodes, a_char, b_char, /*theta=*/0.5, sigma,
                   {}, &stats_1, /*threads=*/1);
  EXPECT_GT(stats_1.candidates_probed, 0u);
  for (size_t threads : kThreadCounts) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      OverlapMatchStats stats;
      const BipartiteMatching h =
          OverlapMatch(a_nodes, b_nodes, a_char, b_char, /*theta=*/0.5,
                       sigma, {}, &stats, threads);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " repeat=" + std::to_string(repeat));
      EXPECT_EQ(stats.candidates_probed, stats_1.candidates_probed);
      EXPECT_EQ(stats.overlap_checked, stats_1.overlap_checked);
      EXPECT_EQ(stats.sigma_checked, stats_1.sigma_checked);
      EXPECT_EQ(stats.matched, stats_1.matched);
      ASSERT_EQ(h.edges.size(), base.edges.size());
      for (size_t i = 0; i < h.edges.size(); ++i) {
        EXPECT_EQ(h.edges[i].a, base.edges[i].a);
        EXPECT_EQ(h.edges[i].b, base.edges[i].b);
        EXPECT_EQ(h.edges[i].distance, base.edges[i].distance);
      }
    }
  }
}

TEST(ParallelPipelineReplay, DeltaChainReplayBitIdentical) {
  // A version chain whose deltas are written once (serially) and then
  // replayed with every thread count: each materialized version must be
  // bit-identical to the threads=1 replay.
  testing::RandomGraphOptions base_options;
  base_options.uris = 6000;
  base_options.literals = 3000;
  base_options.blanks = 1500;
  base_options.edges = 45000;
  base_options.predicates = 40;
  base_options.seed = 4242;
  const std::vector<TripleGraph> chain =
      testing::RandomEvolvingChain(4242, /*versions=*/3, base_options);
  ASSERT_GE(chain[0].NumEdges(), kTwoChunks);

  std::vector<std::string> delta_images;
  for (size_t v = 1; v < chain.size(); ++v) {
    CombinedGraph cg = testing::Combine(chain[v - 1], chain[v]);
    AlignerOptions options;
    options.method = AlignMethod::kHybrid;
    Aligner aligner(options);
    AlignmentOutcome outcome = aligner.AlignCombined(cg);
    const VersionNodeMap map = NodeMapFromPartition(cg, outcome.partition);
    std::ostringstream out;
    ASSERT_TRUE(store::WriteDeltaToStream(chain[v - 1], chain[v], map, out,
                                          "chain_v" + std::to_string(v))
                    .ok());
    delta_images.push_back(std::move(out).str());
  }

  auto replay = [&](size_t threads) {
    store::DeltaApplyOptions options;
    options.threads = threads;
    std::vector<TripleGraph> replayed;
    // Replay against the original base: the apply path re-interns new
    // terms into the shared dictionary exactly like the archive loader.
    replayed.push_back(chain[0]);
    for (const std::string& image : delta_images) {
      auto next = store::ApplyDeltaFromMemory(
          replayed.back(),
          reinterpret_cast<const unsigned char*>(image.data()), image.size(),
          chain[0].dict_ptr(), options);
      if (!next.ok()) {
        ADD_FAILURE() << next.status();
        break;
      }
      replayed.push_back(std::move(next).value());
    }
    return replayed;
  };

  const std::vector<TripleGraph> base = replay(1);
  ASSERT_EQ(base.size(), chain.size());
  for (size_t v = 0; v < chain.size(); ++v) {
    EXPECT_TRUE(GraphsBitIdentical(base[v], chain[v])) << "version " << v;
  }
  for (size_t threads : kThreadCounts) {
    const std::vector<TripleGraph> replayed = replay(threads);
    for (size_t v = 0; v < chain.size(); ++v) {
      EXPECT_TRUE(GraphsBitIdentical(replayed[v], base[v]))
          << "threads=" << threads << " version " << v;
    }
  }
}

}  // namespace
}  // namespace rdfalign
