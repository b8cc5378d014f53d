// Equivalence of the flat dense-ID pipeline against the hash-map
// implementations it replaced (the test oracles in pipeline_oracle.h): the
// rewrite must be a pure representation change, with bit-identical outputs.
//
// Covers random partitions (dense, non-contiguous, adversarially sparse
// color ids), the label-keyed partition constructors, the merge fast path,
// edge/delta statistics, pair enumeration, the crossover checker, and the
// byte-identity of OverlapMatch (edges *and* counters) on seeded instances,
// plus one generated category pair run through every phase end to end.

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/alignment.h"
#include "core/delta.h"
#include "core/edit_distance.h"
#include "core/hybrid.h"
#include "core/overlap_align.h"
#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "gen/textgen.h"
#include "rdf/merge.h"
#include "rdf/statistics.h"
#include "util/random.h"
#include "util/string_util.h"
#include "pipeline_oracle.h"

namespace rdfalign {
namespace {

// ---------------------------------------------------------------- helpers ---

/// Random color vector. `style` 0: dense-ish ids in [0, n); 1: sparse
/// non-contiguous ids (multiples of 7 plus an offset); 2: adversarial ids
/// spread over the whole 32-bit range (forces the hash fallback).
std::vector<ColorId> RandomColors(Rng& rng, size_t n, int style) {
  std::vector<ColorId> colors(n);
  for (size_t i = 0; i < n; ++i) {
    switch (style) {
      case 0:
        colors[i] = static_cast<ColorId>(rng.Uniform(std::max<size_t>(n, 1)));
        break;
      case 1:
        colors[i] = static_cast<ColorId>(
            7 * rng.Uniform(std::max<size_t>(n / 2, 1)) + 13);
        break;
      default:
        colors[i] = static_cast<ColorId>(rng.Uniform(0xffffffffULL)) |
                    (i % 3 == 0 ? 0x80000000u : 0u);
        break;
    }
  }
  return colors;
}

std::pair<TripleGraph, TripleGraph> RandomVersionPair(uint64_t seed) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(0.05, /*versions=*/2, seed));
  return {chain.Version(0), chain.Version(1)};
}

// ------------------------------------------------------------- partitions ---

TEST(FlatPartitionEquivalence, FromColorsMatchesLegacyOnRandomInputs) {
  Rng rng(7);
  for (int style = 0; style < 3; ++style) {
    for (size_t trial = 0; trial < 40; ++trial) {
      const size_t n = rng.Uniform(300);
      std::vector<ColorId> colors = RandomColors(rng, n, style);
      Partition flat = Partition::FromColors(colors);
      auto [legacy_colors, legacy_count] =
          oracle::RenumberFirstOccurrence(colors);
      EXPECT_EQ(flat.colors(), legacy_colors)
          << "style=" << style << " trial=" << trial;
      EXPECT_EQ(flat.NumColors(), legacy_count);
    }
  }
}

TEST(FlatPartitionEquivalence, FromColorsHandlesAdversarialSentinelValues) {
  // Ids at the very top of the 32-bit range (including the sentinel value
  // used by the flat remap tables) must renumber like any other id.
  std::vector<ColorId> colors = {0xffffffffu, 0, 0xffffffffu, 0xfffffffeu, 0};
  Partition p = Partition::FromColors(colors);
  auto [legacy_colors, legacy_count] =
      oracle::RenumberFirstOccurrence(colors);
  EXPECT_EQ(p.colors(), legacy_colors);
  EXPECT_EQ(p.NumColors(), legacy_count);
  EXPECT_EQ(p.NumColors(), 3u);
}

TEST(FlatPartitionEquivalence, EquivalentAndFinerMatchLegacy) {
  Rng rng(11);
  for (size_t trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.Uniform(200);
    Partition a = Partition::FromColors(RandomColors(rng, n, trial % 3));
    // b is either a color-permuted copy of a, a coarsening, or independent.
    Partition b;
    switch (trial % 3) {
      case 0: {  // permuted copy: equivalent to a
        std::vector<ColorId> permuted(a.colors());
        for (ColorId& c : permuted) c = static_cast<ColorId>(c * 2654435761u);
        b = Partition::FromColors(std::move(permuted));
        break;
      }
      case 1: {  // coarsening: a is finer or equal
        std::vector<ColorId> coarse(a.colors());
        for (ColorId& c : coarse) c /= 2;
        b = Partition::FromColors(std::move(coarse));
        break;
      }
      default:
        b = Partition::FromColors(RandomColors(rng, n, 0));
        break;
    }
    EXPECT_EQ(Partition::Equivalent(a, b), oracle::PartitionEquivalent(a, b))
        << trial;
    EXPECT_EQ(Partition::IsFinerOrEqual(a, b),
              oracle::PartitionIsFinerOrEqual(a, b))
        << trial;
    EXPECT_EQ(Partition::IsFinerOrEqual(b, a),
              oracle::PartitionIsFinerOrEqual(b, a))
        << trial;
    EXPECT_TRUE(Partition::Equivalent(a, a));
    EXPECT_TRUE(Partition::IsFinerOrEqual(a, a));
  }
}

TEST(FlatPartitionEquivalence, ClassesCsrMatchesLegacyVectors) {
  Rng rng(13);
  for (size_t trial = 0; trial < 30; ++trial) {
    const size_t n = rng.Uniform(250);
    Partition p = Partition::FromColors(RandomColors(rng, n, trial % 3));
    PartitionClasses csr = p.Classes();
    std::vector<std::vector<NodeId>> legacy_classes =
        oracle::PartitionClassesVectors(p);
    ASSERT_EQ(csr.size(), legacy_classes.size());
    for (size_t c = 0; c < csr.size(); ++c) {
      std::span<const NodeId> members = csr[c];
      EXPECT_TRUE(std::equal(members.begin(), members.end(),
                             legacy_classes[c].begin(),
                             legacy_classes[c].end()))
          << "class " << c;
    }
  }
}

TEST(FlatPartitionEquivalence, LabelKeyedConstructorsMatchLegacy) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    const TripleGraph& g = cg.graph();
    EXPECT_EQ(LabelPartition(g).colors(), oracle::LabelPartition(g).colors());
    EXPECT_EQ(TrivialPartition(g).colors(),
              oracle::TrivialPartition(g).colors());
  }
}

TEST(FlatPartitionEquivalence, LabelKeyedConstructorsWithOversizedDictionary) {
  // Archive workloads share one Dictionary across many versions, so the
  // dictionary can dwarf one graph's node set; the constructors then take
  // the hash path instead of clearing an O(terms) flat table. Same colors
  // either way.
  auto dict = std::make_shared<Dictionary>();
  for (int i = 0; i < 20000; ++i) {
    dict->Intern("ex:unrelated-term-" + std::to_string(i));
  }
  GraphBuilder b(dict);
  NodeId s = b.AddUri("ex:s");
  NodeId p = b.AddUri("ex:p");
  NodeId lit = b.AddLiteral("hello");
  NodeId blank1 = b.AddBlank("b1");
  NodeId blank2 = b.AddBlank("b2");
  b.AddTriple(s, p, lit);
  b.AddTriple(blank1, p, lit);
  b.AddTriple(blank2, p, lit);
  TripleGraph g = std::move(b.Build(true)).value();
  ASSERT_GT(g.dict().size(), 4 * g.NumNodes() + 1024);
  EXPECT_EQ(LabelPartition(g).colors(), oracle::LabelPartition(g).colors());
  EXPECT_EQ(TrivialPartition(g).colors(),
            oracle::TrivialPartition(g).colors());
  // Blanks: one shared class under ℓ_G, singletons under λ_Trivial.
  Partition lp = LabelPartition(g);
  EXPECT_EQ(lp.ColorOf(blank1), lp.ColorOf(blank2));
  Partition tp = TrivialPartition(g);
  EXPECT_NE(tp.ColorOf(blank1), tp.ColorOf(blank2));
}

// ------------------------------------------------------------------ merge ---

/// The fast merge must equal the re-indexed union element for element —
/// triples, labels, and both CSR indexes, not just semantically.
void ExpectMergeMatchesOracle(const TripleGraph& g1, const TripleGraph& g2,
                              size_t threads = 1) {
  auto fast = CombinedGraph::Build(g1, g2, threads).value();
  TripleGraph slow = oracle::ReindexedUnion(g1, g2).value();
  ASSERT_TRUE(LabeledGraphsEqual(fast.graph(), slow));
  auto spans_equal = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(spans_equal(fast.graph().OutOffsets(), slow.OutOffsets()));
  EXPECT_TRUE(spans_equal(fast.graph().OutPairs(), slow.OutPairs()));
  EXPECT_TRUE(spans_equal(fast.graph().InOffsets(), slow.InOffsets()));
  EXPECT_TRUE(spans_equal(fast.graph().InSubjects(), slow.InSubjects()));
  EXPECT_EQ(fast.n1(), g1.NumNodes());
  EXPECT_EQ(fast.n2(), g2.NumNodes());
  EXPECT_EQ(fast.e1(), g1.NumEdges());
  EXPECT_EQ(fast.e2(), g2.NumEdges());
}

TEST(MergeEquivalence, FastBuildIsBitIdenticalToLegacyReindex) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE(seed);
    auto [g1, g2] = RandomVersionPair(seed);
    ExpectMergeMatchesOracle(g1, g2);
    // Node lookup by label behaves the same (first match wins per side).
    auto fast = CombinedGraph::Build(g1, g2).value();
    EXPECT_EQ(fast.graph().FindUri("not-there"), kInvalidNode);
  }
}

TEST(MergeEquivalence, EmptySidesMerge) {
  auto dict = std::make_shared<Dictionary>();
  GraphBuilder b1(dict);
  b1.AddUriTriple("ex:s", "ex:p", "ex:o");
  GraphBuilder b2(dict);
  auto g1 = std::move(b1.Build(true)).value();
  auto g2 = std::move(b2.Build(true)).value();
  ExpectMergeMatchesOracle(g1, g2);
  ExpectMergeMatchesOracle(g2, g1);
  EXPECT_EQ(CombinedGraph::Build(g2, g1).value().n1(), 0u);
}

// -------------------------------------------------------------- statistics ---

/// Edge-alignment statistics and the delta of `p` equal the oracle's.
void ExpectStatsAndDeltaMatchOracle(const CombinedGraph& cg,
                                    const Partition& p, size_t threads = 1) {
  EdgeAlignmentStats flat_stats = ComputeEdgeAlignment(cg, p, threads);
  EdgeAlignmentStats legacy_stats = oracle::ComputeEdgeAlignment(cg, p);
  EXPECT_EQ(flat_stats.total_edges, legacy_stats.total_edges);
  EXPECT_EQ(flat_stats.aligned_edges, legacy_stats.aligned_edges);

  RdfDelta flat_delta = ComputeDelta(cg, p, threads);
  RdfDelta legacy_delta = oracle::ComputeDelta(cg, p);
  EXPECT_EQ(flat_delta.unchanged, legacy_delta.unchanged);
  // added/deleted preserve triple order exactly.
  EXPECT_EQ(flat_delta.added, legacy_delta.added);
  EXPECT_EQ(flat_delta.deleted, legacy_delta.deleted);
  // The oracle's rename order follows unordered_map iteration; compare as
  // sets of (source, target) node pairs.
  auto rename_set = [](const RdfDelta& d) {
    std::set<std::pair<NodeId, NodeId>> out;
    for (const UriRename& r : d.renamed_uris) out.emplace(r.source, r.target);
    return out;
  };
  EXPECT_EQ(rename_set(flat_delta), rename_set(legacy_delta));
  EXPECT_EQ(flat_delta.renamed_uris.size(), legacy_delta.renamed_uris.size());
}

TEST(StatsEquivalence, EdgeAlignmentAndDeltaMatchLegacy) {
  for (uint64_t seed : {3ull, 4ull, 5ull, 6ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    ExpectStatsAndDeltaMatchOracle(cg, TrivialPartition(cg.graph()));
    ExpectStatsAndDeltaMatchOracle(cg, HybridPartition(cg));
  }
}

TEST(StatsEquivalence, PairEnumerationAndCrossoverMatchLegacy) {
  for (uint64_t seed : {2ull, 3ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    Partition p = HybridPartition(cg);
    auto flat_pairs = EnumerateAlignedPairs(cg, p);
    auto legacy_pairs = oracle::EnumerateAlignedPairs(cg, p);
    std::set<std::pair<NodeId, NodeId>> flat_set(flat_pairs.begin(),
                                                 flat_pairs.end());
    std::set<std::pair<NodeId, NodeId>> legacy_set(legacy_pairs.begin(),
                                                   legacy_pairs.end());
    EXPECT_EQ(flat_set, legacy_set);
    EXPECT_EQ(flat_pairs.size(), legacy_pairs.size());
    EXPECT_EQ(HasCrossoverProperty(flat_pairs),
              oracle::HasCrossoverProperty(flat_pairs));
    EXPECT_TRUE(HasCrossoverProperty(flat_pairs));
    // Limit still respected, deterministically.
    auto limited = EnumerateAlignedPairs(cg, p, 5);
    EXPECT_LE(limited.size(), 5u);
    EXPECT_EQ(limited, EnumerateAlignedPairs(cg, p, 5));
  }
}

TEST(StatsEquivalence, CrossoverCheckerAgreesOnViolations) {
  std::vector<std::pair<NodeId, NodeId>> bad = {{1, 10}, {1, 11}, {2, 10}};
  EXPECT_FALSE(HasCrossoverProperty(bad));
  EXPECT_FALSE(oracle::HasCrossoverProperty(bad));
  bad.emplace_back(2, 11);
  EXPECT_TRUE(HasCrossoverProperty(bad));
  EXPECT_TRUE(oracle::HasCrossoverProperty(bad));
  // Duplicated pairs must not change the verdict.
  bad.push_back(bad.front());
  EXPECT_EQ(HasCrossoverProperty(bad), oracle::HasCrossoverProperty(bad));
}

// ------------------------------------------------------------ OverlapMatch ---

/// Word-set fixture in both representations (CSR and per-node vectors).
struct DualFixture {
  std::vector<NodeId> a_nodes;
  std::vector<NodeId> b_nodes;
  CharacterizingSets a_csr;
  CharacterizingSets b_csr;
  oracle::VectorCharSets a_vec;
  oracle::VectorCharSets b_vec;
  std::vector<std::string> a_text;
  std::vector<std::string> b_text;
};

DualFixture MakeDualFixture(uint64_t seed, size_t n, double typo_prob) {
  Rng rng(seed);
  DualFixture f;
  std::unordered_map<std::string, uint64_t> words;
  auto charset = [&](const std::string& text) {
    std::vector<uint64_t> ids;
    for (const std::string& w : SplitWords(text)) {
      auto [it, ins] = words.emplace(w, words.size());
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  };
  for (size_t i = 0; i < n; ++i) {
    std::string base = gen::RandomSentence(rng, 3, 7);
    std::string evolved =
        rng.Bernoulli(typo_prob) ? gen::ApplyTypo(base, rng) : base;
    f.a_nodes.push_back(static_cast<NodeId>(i));
    f.b_nodes.push_back(static_cast<NodeId>(10000 + i));
    f.a_text.push_back(base);
    f.b_text.push_back(evolved);
    std::vector<uint64_t> ca = charset(base);
    std::vector<uint64_t> cb = charset(evolved);
    f.a_csr.push_back(ca);
    f.b_csr.push_back(cb);
    f.a_vec.push_back(std::move(ca));
    f.b_vec.push_back(std::move(cb));
  }
  return f;
}

/// Byte identity: same edges, same order, same distances, same counters.
void ExpectMatchingsIdentical(const BipartiteMatching& flat,
                              const OverlapMatchStats& flat_stats,
                              const BipartiteMatching& legacy_h,
                              const OverlapMatchStats& legacy_stats) {
  ASSERT_EQ(flat.edges.size(), legacy_h.edges.size());
  for (size_t i = 0; i < flat.edges.size(); ++i) {
    EXPECT_EQ(flat.edges[i].a, legacy_h.edges[i].a) << i;
    EXPECT_EQ(flat.edges[i].b, legacy_h.edges[i].b) << i;
    EXPECT_EQ(flat.edges[i].distance, legacy_h.edges[i].distance) << i;
  }
  EXPECT_EQ(flat_stats.candidates_probed, legacy_stats.candidates_probed);
  EXPECT_EQ(flat_stats.overlap_checked, legacy_stats.overlap_checked);
  EXPECT_EQ(flat_stats.sigma_checked, legacy_stats.sigma_checked);
  EXPECT_EQ(flat_stats.matched, legacy_stats.matched);
}

class OverlapMatchByteIdentity
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, bool>> {};

TEST_P(OverlapMatchByteIdentity, EdgesAndCountersAreIdenticalToLegacy) {
  auto [seed, theta, paper_prefix] = GetParam();
  DualFixture f = MakeDualFixture(seed, 50, 0.5);
  auto sigma = [&](size_t ai, size_t bi) {
    // Deterministic, representation-independent distance.
    return NormalizedEditDistance(f.a_text[ai], f.b_text[bi]);
  };
  OverlapMatchOptions options;
  options.paper_prefix = paper_prefix;
  OverlapMatchStats flat_stats;
  OverlapMatchStats legacy_stats;
  BipartiteMatching flat = OverlapMatch(f.a_nodes, f.b_nodes, f.a_csr,
                                        f.b_csr, theta, sigma, options,
                                        &flat_stats);
  BipartiteMatching legacy_h =
      oracle::OverlapMatch(f.a_nodes, f.b_nodes, f.a_vec, f.b_vec, theta,
                           sigma, options, &legacy_stats);
  ExpectMatchingsIdentical(flat, flat_stats, legacy_h, legacy_stats);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OverlapMatchByteIdentity,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0.35, 0.65, 0.9),
                       ::testing::Bool()));

// 1200 A-side nodes span five of the probe's 256-node chunks, so the
// four-thread run folds several chunks from the pool. Both thread counts
// must reproduce the oracle's edges, order, distances and counters.
TEST(OverlapMatchByteIdentityTest, MultiChunkProbeMatchesOracle) {
  DualFixture f = MakeDualFixture(7, 1200, 0.5);
  auto sigma = [&](size_t ai, size_t bi) {
    return NormalizedEditDistance(f.a_text[ai], f.b_text[bi]);
  };
  for (bool paper_prefix : {false, true}) {
    OverlapMatchOptions options;
    options.paper_prefix = paper_prefix;
    OverlapMatchStats oracle_stats;
    BipartiteMatching oracle_h =
        oracle::OverlapMatch(f.a_nodes, f.b_nodes, f.a_vec, f.b_vec, 0.65,
                             sigma, options, &oracle_stats);
    ASSERT_GT(oracle_h.edges.size(), 256u);
    for (size_t threads : {1, 4}) {
      SCOPED_TRACE("paper_prefix=" + std::to_string(paper_prefix) +
                   " threads=" + std::to_string(threads));
      OverlapMatchStats stats;
      BipartiteMatching h =
          OverlapMatch(f.a_nodes, f.b_nodes, f.a_csr, f.b_csr, 0.65, sigma,
                       options, &stats, threads);
      ExpectMatchingsIdentical(h, stats, oracle_h, oracle_stats);
    }
  }
}

TEST(OverlapMatchByteIdentityTest, EmptyAndDegenerateInputs) {
  DualFixture f = MakeDualFixture(9, 5, 0.0);
  auto zero = [](size_t, size_t) { return 0.0; };
  OverlapMatchStats s1, s2;
  auto e1 = OverlapMatch({}, f.b_nodes, {}, f.b_csr, 0.5, zero, {}, &s1);
  auto e2 = oracle::OverlapMatch({}, f.b_nodes, {}, f.b_vec, 0.5, zero, {},
                                 &s2);
  EXPECT_TRUE(e1.Empty());
  EXPECT_TRUE(e2.Empty());
  EXPECT_EQ(s1.candidates_probed, s2.candidates_probed);
}

// ------------------------------------------------- generated, every phase ---

// One fig16-size category pair (scale 1) run through every non-refinement
// phase — merge, partition ops on the hybrid partition, overlap match over
// the unaligned non-literals, statistics and delta — each checked against
// the oracle. It is wider than the merge's 1 << 15 chunk grain, so the
// four-thread merge runs several chunks on the pool.
TEST(GeneratedPipelineEquivalence, CategoryPairEveryPhase) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(1.0, /*versions=*/2, /*seed=*/5));
  const TripleGraph& g1 = chain.Version(0);
  const TripleGraph& g2 = chain.Version(1);
  ExpectMergeMatchesOracle(g1, g2);
  ExpectMergeMatchesOracle(g1, g2, /*threads=*/4);
  auto cg = CombinedGraph::Build(g1, g2).value();
  const TripleGraph& g = cg.graph();

  // Partition ops.
  const Partition hybrid = HybridPartition(cg);
  const Partition label = LabelPartition(g);
  EXPECT_EQ(label.colors(), oracle::LabelPartition(g).colors());
  auto [renumbered, count] = oracle::RenumberFirstOccurrence(hybrid.colors());
  EXPECT_EQ(Partition::FromColors(hybrid.colors()).colors(), renumbered);
  EXPECT_EQ(hybrid.NumColors(), count);
  PartitionClasses classes = hybrid.Classes();
  std::vector<std::vector<NodeId>> oracle_classes =
      oracle::PartitionClassesVectors(hybrid);
  ASSERT_EQ(classes.size(), oracle_classes.size());
  for (size_t c = 0; c < classes.size(); ++c) {
    std::span<const NodeId> members = classes[c];
    ASSERT_TRUE(std::equal(members.begin(), members.end(),
                           oracle_classes[c].begin(), oracle_classes[c].end()))
        << "class " << c;
  }
  EXPECT_TRUE(oracle::PartitionEquivalent(hybrid, hybrid));
  EXPECT_EQ(Partition::IsFinerOrEqual(hybrid, label),
            oracle::PartitionIsFinerOrEqual(hybrid, label));
  EXPECT_EQ(Partition::IsFinerOrEqual(label, hybrid),
            oracle::PartitionIsFinerOrEqual(label, hybrid));

  // Overlap match over the non-literals the trivial partition leaves
  // unaligned (the hybrid one re-aligns every non-literal of this chain,
  // which would leave the match nothing to do).
  const Partition trivial = TrivialPartition(g);
  EXPECT_EQ(trivial.colors(), oracle::TrivialPartition(g).colors());
  WeightedPartition xi = MakeZeroWeighted(trivial);
  std::vector<NodeId> a_nodes, b_nodes;
  std::vector<ClassSides> sides = ComputeClassSides(cg, trivial);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsLiteral(n) || sides[trivial.ColorOf(n)] == ClassSides::kBoth) {
      continue;
    }
    (cg.InSource(n) ? a_nodes : b_nodes).push_back(n);
  }
  ASSERT_FALSE(a_nodes.empty());
  ASSERT_FALSE(b_nodes.empty());
  CharacterizingSets a_csr, b_csr;
  oracle::VectorCharSets a_vec, b_vec;
  for (NodeId n : a_nodes) {
    AppendOutColorSet(g, xi, n, a_csr);
    a_vec.push_back(OutColorSet(g, xi, n));
  }
  for (NodeId n : b_nodes) {
    AppendOutColorSet(g, xi, n, b_csr);
    b_vec.push_back(OutColorSet(g, xi, n));
  }
  auto sigma = [&](size_t x, size_t y) {
    return SigmaNonLiteral(g, xi, a_nodes[x], b_nodes[y]);
  };
  OverlapMatchStats flat_stats, oracle_stats;
  BipartiteMatching flat = OverlapMatch(a_nodes, b_nodes, a_csr, b_csr, 0.65,
                                        sigma, {}, &flat_stats);
  BipartiteMatching oracle_h = oracle::OverlapMatch(
      a_nodes, b_nodes, a_vec, b_vec, 0.65, sigma, {}, &oracle_stats);
  ExpectMatchingsIdentical(flat, flat_stats, oracle_h, oracle_stats);
  EXPECT_GT(flat_stats.matched, 0u);

  // Statistics and delta.
  ExpectStatsAndDeltaMatchOracle(cg, trivial);
  ExpectStatsAndDeltaMatchOracle(cg, hybrid);
}

/// Class sides, node-alignment counters and graph statistics equal the
/// oracle's serial loops.
void ExpectNodeStatsMatchOracle(const CombinedGraph& cg, const Partition& p,
                                size_t threads) {
  EXPECT_EQ(ComputeClassSides(cg, p, threads),
            oracle::ComputeClassSides(cg, p));
  const NodeAlignmentStats flat = ComputeNodeAlignment(cg, p, threads);
  const NodeAlignmentStats legacy = oracle::ComputeNodeAlignment(cg, p);
  EXPECT_EQ(flat.aligned_classes, legacy.aligned_classes);
  EXPECT_EQ(flat.aligned_source_nodes, legacy.aligned_source_nodes);
  EXPECT_EQ(flat.aligned_target_nodes, legacy.aligned_target_nodes);
  EXPECT_EQ(flat.unaligned_source_nodes, legacy.unaligned_source_nodes);
  EXPECT_EQ(flat.unaligned_target_nodes, legacy.unaligned_target_nodes);
}

void ExpectGraphStatisticsMatchOracle(const TripleGraph& g, size_t threads) {
  const GraphStatistics flat = ComputeStatistics(g, threads);
  const GraphStatistics legacy = oracle::ComputeStatistics(g);
  EXPECT_EQ(flat.nodes, legacy.nodes);
  EXPECT_EQ(flat.edges, legacy.edges);
  EXPECT_EQ(flat.uris, legacy.uris);
  EXPECT_EQ(flat.literals, legacy.literals);
  EXPECT_EQ(flat.blanks, legacy.blanks);
  EXPECT_EQ(flat.predicate_only_uris, legacy.predicate_only_uris);
  EXPECT_EQ(flat.sinks, legacy.sinks);
  EXPECT_EQ(flat.max_out_degree, legacy.max_out_degree);
  EXPECT_EQ(flat.avg_out_degree, legacy.avg_out_degree);
}

// A blank-bearing EFO pair with at least 2^16 edges and 2^15 nodes. Every
// chunked kernel (grain 2^15) splits it into several chunks, and the label
// pass of ComputeEdgeAlignment drops blank-touching edges on both sides
// and inside every chunk, so its per-chunk filtering runs across chunk
// boundaries. Each kernel is checked against its oracle at 1 and 4
// threads.
TEST(GeneratedPipelineEquivalence, EfoPairWithBlanksAcrossChunks) {
  gen::EfoOptions options;
  options.initial_classes = 2500;
  options.versions = 2;
  options.seed = 7;
  const gen::EfoChain chain = gen::EfoChain::Generate(options);
  const TripleGraph& g1 = chain.Version(0);
  const TripleGraph& g2 = chain.Version(1);
  const size_t kGrain = size_t{1} << 15;
  ASSERT_GE(g1.NumEdges() + g2.NumEdges(), 2 * kGrain);
  ASSERT_GT(g1.NumNodes() + g2.NumNodes(), kGrain);
  // Blank-touching edges in every 2^15-edge window of the combined list.
  {
    const CombinedGraph cg = CombinedGraph::Build(g1, g2).value();
    const TripleGraph& g = cg.graph();
    for (size_t begin = 0; begin < g.NumEdges(); begin += kGrain) {
      const size_t end = std::min(begin + kGrain, g.NumEdges());
      size_t blank_edges = 0;
      for (size_t i = begin; i < end; ++i) {
        const Triple& t = g.triples()[i];
        if (g.IsBlank(t.s) || g.IsBlank(t.o)) ++blank_edges;
      }
      ASSERT_GT(blank_edges, 0u) << "window at " << begin;
      ASSERT_LT(blank_edges, end - begin) << "window at " << begin;
    }
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectMergeMatchesOracle(g1, g2, threads);
    const CombinedGraph cg = CombinedGraph::Build(g1, g2, threads).value();
    ExpectGraphStatisticsMatchOracle(g1, threads);
    ExpectGraphStatisticsMatchOracle(g2, threads);
    ExpectGraphStatisticsMatchOracle(cg.graph(), threads);
    for (const Partition& p :
         {TrivialPartition(cg.graph()), HybridPartition(cg)}) {
      ExpectStatsAndDeltaMatchOracle(cg, p, threads);
      ExpectNodeStatsMatchOracle(cg, p, threads);
    }
  }
}

// The full overlap alignment (word interning through Dictionary, streamed
// CSR char sets) still produces the same partition as before the rewrite on
// seeded version pairs — pinned against the aligner-level contract rather
// than a copied implementation.
TEST(OverlapAlignRegression, AlignedStatsStableAcrossRepresentations) {
  for (uint64_t seed : {5ull, 6ull}) {
    auto [g1, g2] = RandomVersionPair(seed);
    auto cg = CombinedGraph::Build(g1, g2).value();
    OverlapAlignResult r1 = OverlapAlign(cg);
    OverlapAlignResult r2 = OverlapAlign(cg);
    // Deterministic run-to-run.
    EXPECT_EQ(r1.xi.partition.colors(), r2.xi.partition.colors());
    EXPECT_EQ(r1.literal_matches, r2.literal_matches);
    EXPECT_EQ(r1.nonliteral_matches, r2.nonliteral_matches);
    // Anything the overlap method aligns must still satisfy crossover.
    auto pairs = EnumerateAlignedPairs(cg, r1.xi.partition, 2000);
    EXPECT_TRUE(HasCrossoverProperty(pairs));
  }
}

}  // namespace
}  // namespace rdfalign
