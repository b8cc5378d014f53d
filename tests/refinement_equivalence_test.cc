// Randomized equivalence harness: the worklist fixpoint engine must compute
// exactly the partition obtained by iterating the paper's one-step
// refinement (Definition 3: BisimRefineStep, BisimRefineStepKeyed,
// ContextualRefineStep) until it stabilizes (Definition 4) — in fact
// bit-identical dense color vectors, since Partition::FromColors renumbers
// canonically — across random graphs, refinable subsets, predicate keys,
// mediation (contextual) instances, and generated category/EFO version
// pairs. Small graphs are additionally cross-checked against the
// brute-force maximal-bisimulation oracle.

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <utility>

#include "core/bisim.h"
#include "core/context.h"
#include "core/refinement.h"
#include "core/worklist_engine.h"
#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "test_util.h"

namespace rdfalign {
namespace {

std::vector<NodeId> AllNodes(const TripleGraph& g) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  return all;
}

// The Definition 4 oracle: applies a one-step refinement until the class
// count stops changing. A step only splits classes (the old color is part
// of every signature), so equal counts mean the fixpoint is reached.
// `*steps` receives the number of steps taken, the stabilizing one
// included.
template <typename Step>
Partition IterateStep(Partition current, size_t* steps, const Step& step) {
  for (*steps = 1;; ++*steps) {
    Partition next = step(current);
    EXPECT_TRUE(Partition::IsFinerOrEqual(next, current));
    const bool stable = next.NumColors() == current.NumColors();
    current = std::move(next);
    if (stable) return current;
  }
}

// Checks one engine run against the oracle's fixpoint and step count.
void ExpectEngineMatches(const Partition& engine, const RefinementStats& stats,
                         const Partition& oracle, size_t steps,
                         const Partition& initial,
                         const std::vector<NodeId>& x) {
  ASSERT_TRUE(Partition::Equivalent(engine, oracle));
  // FromColors renumbers by first occurrence, which is canonical for an
  // equivalence relation: equal relations give equal vectors.
  EXPECT_EQ(engine.colors(), oracle.colors());
  EXPECT_EQ(stats.final_classes, oracle.NumColors());
  EXPECT_TRUE(Partition::IsFinerOrEqual(engine, initial));
  // The worklist can only shrink after the first full pass.
  if (!stats.dirty_per_iteration.empty()) {
    EXPECT_EQ(stats.dirty_per_iteration.front(), x.size());
  }
  // Total work must not exceed re-signing all of X at every step.
  EXPECT_LE(stats.TotalDirty(), steps * x.size());
}

// Checks the plain (mask == nullptr) or keyed fixpoint under each of
// `engines` against the step-iteration oracle on one (graph, initial, x)
// instance.
void ExpectMatchesStepOracle(
    const TripleGraph& g, const Partition& initial,
    const std::vector<NodeId>& x, const std::vector<uint8_t>* mask,
    std::initializer_list<RefinementOptions> engines = {{}}) {
  size_t steps = 0;
  Partition oracle = IterateStep(initial, &steps, [&](const Partition& p) {
    return mask == nullptr ? BisimRefineStep(g, p, x)
                           : BisimRefineStepKeyed(g, p, x, *mask);
  });
  for (const RefinementOptions& options : engines) {
    RefinementStats stats;
    Partition engine =
        mask == nullptr
            ? BisimRefineFixpoint(g, initial, x, &stats, options)
            : BisimRefineFixpointKeyed(g, initial, x, *mask, &stats, options);
    ExpectEngineMatches(engine, stats, oracle, steps, initial, x);
  }
}

// Contextual (mediation-aware) refinement: the worklist fixpoint must match
// iterating ContextualRefineStep bit for bit.
void ExpectContextualMatchesStepOracle(
    const TripleGraph& g, const Partition& initial,
    const std::vector<NodeId>& x, const MediationIndex& mediation,
    const std::vector<uint8_t>& pred_only,
    std::initializer_list<RefinementOptions> engines = {{}}) {
  size_t steps = 0;
  Partition oracle = IterateStep(initial, &steps, [&](const Partition& p) {
    return ContextualRefineStep(g, p, x, mediation, pred_only);
  });
  for (const RefinementOptions& options : engines) {
    RefinementStats stats;
    Partition engine = ContextualRefineFixpoint(g, initial, x, mediation,
                                                pred_only, &stats, options);
    ExpectEngineMatches(engine, stats, oracle, steps, initial, x);
  }
}

// Returns the number of predicate-only URIs so callers can assert the
// mediation path was actually exercised across a suite of instances.
size_t ExpectContextualMatchesStepOracle(const TripleGraph& g,
                                         const Partition& initial,
                                         const std::vector<NodeId>& x) {
  std::vector<uint8_t> predicate_only(g.NumNodes(), 0);
  const std::vector<NodeId> pred_only_uris = PredicateOnlyUris(g);
  for (NodeId n : pred_only_uris) predicate_only[n] = 1;
  ExpectContextualMatchesStepOracle(g, initial, x, MediationIndex(g),
                                    predicate_only);
  return pred_only_uris.size();
}

class EngineEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(EngineEquivalenceProperty, RandomGraphsAllSubsets) {
  const uint64_t seed = GetParam();
  testing::RandomGraphOptions options;
  options.seed = seed;
  options.uris = 8 + seed % 13;
  options.literals = 4 + seed % 9;
  options.blanks = 3 + seed % 11;
  options.edges = 20 + seed % 70;
  options.predicates = 2 + seed % 5;
  TripleGraph g = testing::RandomGraph(options);

  const std::vector<NodeId> all = AllNodes(g);
  const std::vector<NodeId> blanks = g.NodesOfKind(TermKind::kBlank);

  // Full bisimulation from the label partition.
  ExpectMatchesStepOracle(g, LabelPartition(g), all, nullptr);
  // Deblanking restriction: X = blanks only.
  ExpectMatchesStepOracle(g, LabelPartition(g), blanks, nullptr);
  // From the trivial partition (URI singletons stay put).
  ExpectMatchesStepOracle(g, TrivialPartition(g), all, nullptr);

  // Keyed refinement under a pseudo-random key over the predicates.
  std::vector<uint8_t> mask(g.NumNodes(), 0);
  for (const Triple& t : g.triples()) {
    if ((g.LexicalId(t.p) + seed) % 2 == 0) mask[t.p] = 1;
  }
  ExpectMatchesStepOracle(g, LabelPartition(g), all, &mask);
  ExpectMatchesStepOracle(g, LabelPartition(g), blanks, &mask);
}

// 50 seeds x 5 oracle comparisons each = 250 random instances, plus the
// evolving-pair, generated-chain, and brute-force suites below.
INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceProperty,
                         ::testing::Range<uint64_t>(1, 51));

class EvolvingPairEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvolvingPairEquivalence, CombinedGraphsAgree) {
  // The production shape: a combined two-version graph where label classes
  // pair up across the sides.
  auto [g1, g2] = testing::RandomEvolvingPair(GetParam());
  CombinedGraph cg = testing::Combine(g1, g2);
  const TripleGraph& g = cg.graph();
  ExpectMatchesStepOracle(g, LabelPartition(g), AllNodes(g), nullptr);
  ExpectMatchesStepOracle(g, LabelPartition(g), g.NodesOfKind(TermKind::kBlank),
                     nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvolvingPairEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

class BruteForceCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BruteForceCrossCheck, IncrementalMatchesOracleOnSmallGraphs) {
  const uint64_t seed = GetParam();
  testing::RandomGraphOptions options;
  options.seed = seed;
  options.uris = 4;
  options.literals = 3;
  options.blanks = 2 + seed % 4;
  options.edges = 8 + seed % 10;
  options.predicates = 2;
  TripleGraph g = testing::RandomGraph(options);

  Partition p = BisimPartition(g);
  auto oracle = MaximalBisimulationBruteForce(g);
  std::set<std::pair<NodeId, NodeId>> rel(oracle.begin(), oracle.end());
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      EXPECT_EQ(p.ColorOf(a) == p.ColorOf(b), rel.count({a, b}) > 0)
          << "nodes " << a << "," << b << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForceCrossCheck,
                         ::testing::Range<uint64_t>(1, 9));

TEST(EngineEquivalenceTest, PaperGraphsBitIdentical) {
  TripleGraph g = testing::Fig2Graph();
  ExpectMatchesStepOracle(g, LabelPartition(g), AllNodes(g), nullptr);

  auto [g1, g2] = testing::Fig3Graphs();
  CombinedGraph cg = testing::Combine(g1, g2);
  ExpectMatchesStepOracle(cg.graph(), LabelPartition(cg.graph()),
                     AllNodes(cg.graph()), nullptr);
}

TEST(EngineEquivalenceTest, EmptySubsetIsIdentity) {
  TripleGraph g = testing::Fig2Graph();
  Partition p0 = LabelPartition(g);
  RefinementStats stats;
  Partition fix = BisimRefineFixpoint(g, p0, {}, &stats);
  EXPECT_TRUE(Partition::Equivalent(p0, fix));
  EXPECT_GE(stats.iterations, 1u);
  ExpectMatchesStepOracle(g, p0, {}, nullptr);
}

// 40 random graphs x 2 inputs = 80 contextual instances; the accumulated
// predicate-only count guards that the mediation path is genuinely
// exercised (random predicates are predominantly predicate-only).
TEST(ContextualEquivalenceTest, RandomMediationInstances) {
  size_t total_predicate_only = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    testing::RandomGraphOptions options;
    options.seed = seed * 977;
    options.uris = 8 + seed % 11;
    options.literals = 4 + seed % 7;
    options.blanks = 3 + seed % 9;
    options.edges = 24 + seed % 60;
    options.predicates = 2 + seed % 6;
    TripleGraph g = testing::RandomGraph(options);
    const std::vector<NodeId> all = AllNodes(g);
    total_predicate_only +=
        ExpectContextualMatchesStepOracle(g, LabelPartition(g), all);
    // The production shape: refine from a blanked partition over a subset
    // (here the blanks plus every URI with an even lexical id).
    std::vector<NodeId> subset = g.NodesOfKind(TermKind::kBlank);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.IsUri(n) && g.LexicalId(n) % 2 == 0) subset.push_back(n);
    }
    std::sort(subset.begin(), subset.end());
    ExpectContextualMatchesStepOracle(g, BlankColors(LabelPartition(g), subset),
                                 subset);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      break;
    }
  }
  EXPECT_GT(total_predicate_only, 0u)
      << "no instance had predicate-only URIs; mediation never exercised";
}

TEST(ContextualEquivalenceTest, MediationDirtinessCarriesDeepSplits) {
  // p1 and p2 are predicate-only and mediate (b1, lit) and (b2, lit). The
  // blanks b1, b2 split only in round two, after their children c1, c2
  // split on different literals; p1 and p2 must then split in round three.
  // No in-edge leads from b1 or b2 to p1 or p2, so only the mediation
  // dirtiness rule (MediationIndex::MediatingPredicates) re-signs them —
  // the random instances above never need it.
  GraphBuilder b;
  const NodeId p1 = b.AddUri("ex:p1");
  const NodeId p2 = b.AddUri("ex:p2");
  const NodeId q = b.AddUri("ex:q");
  const NodeId r = b.AddUri("ex:r");
  const NodeId lit = b.AddLiteral("shared");
  const NodeId b1 = b.AddBlank("b1");
  const NodeId b2 = b.AddBlank("b2");
  const NodeId c1 = b.AddBlank("c1");
  const NodeId c2 = b.AddBlank("c2");
  b.AddTriple(b1, p1, lit);
  b.AddTriple(b2, p2, lit);
  b.AddTriple(b1, q, c1);
  b.AddTriple(b2, q, c2);
  b.AddTriple(c1, r, b.AddLiteral("x"));
  b.AddTriple(c2, r, b.AddLiteral("y"));
  TripleGraph g = std::move(b.Build(true)).value();

  std::vector<NodeId> x = {p1, p2, b1, b2, c1, c2};
  std::sort(x.begin(), x.end());
  const Partition initial = BlankColors(LabelPartition(g), x);
  ASSERT_EQ(ExpectContextualMatchesStepOracle(g, initial, x), 4u);
  RefinementStats stats;
  std::vector<uint8_t> predicate_only(g.NumNodes(), 0);
  for (NodeId n : PredicateOnlyUris(g)) predicate_only[n] = 1;
  Partition fix = ContextualRefineFixpoint(g, initial, x, MediationIndex(g),
                                           predicate_only, &stats);
  EXPECT_NE(fix.ColorOf(p1), fix.ColorOf(p2));
  EXPECT_GE(stats.iterations, 3u);
}

class ContextualEvolvingPairEquivalence
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextualEvolvingPairEquivalence, PredicateAwareHybridAgrees) {
  // End-to-end: the predicate-aware hybrid alignment over a combined
  // two-version graph is the step-iteration fixpoint of its inputs.
  auto [g1, g2] = testing::RandomEvolvingPair(GetParam());
  CombinedGraph cg = testing::Combine(g1, g2);
  ContextualHybridInputs in = BuildContextualHybridInputs(cg);
  size_t steps = 0;
  Partition oracle = IterateStep(in.blanked, &steps, [&](const Partition& p) {
    return ContextualRefineStep(cg.graph(), p, in.x, in.mediation,
                                in.predicate_only);
  });
  RefinementStats stats;
  Partition hybrid = PredicateAwareHybridPartition(cg, &stats);
  ExpectEngineMatches(hybrid, stats, oracle, steps, in.blanked, in.x);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextualEvolvingPairEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// Generated version pairs at the shapes of the paper's scalability
// (category, Fig. 16, at scale 3, the smallest whole scale whose
// contextual X is wider than one chunk) and EFO (Fig. 9) experiments: the
// random graphs above are small, and only graphs this large have first
// rounds wider than one signing chunk (internal::kSignGrain), the ones the
// pool runs at threads > 1. Full bisimulation from the label
// partition, the deblank restriction, and the predicate-aware hybrid
// shape, each on one signing thread and on four, against one oracle run.
// ExpectEngineMatches pins each first round to |X|, so |X| > kSignGrain
// means the four-thread run signs several chunks concurrently.
void ExpectGeneratedPairMatchesOracle(const CombinedGraph& cg) {
  const TripleGraph& g = cg.graph();
  const RefinementOptions serial;
  const RefinementOptions parallel{.threads = 4};
  const std::vector<NodeId> all = AllNodes(g);
  const std::vector<NodeId> blanks = g.NodesOfKind(TermKind::kBlank);
  ASSERT_GT(all.size(), internal::kSignGrain);
  if (!blanks.empty()) {
    ASSERT_GT(blanks.size(), internal::kSignGrain);
  }
  ExpectMatchesStepOracle(g, LabelPartition(g), all, nullptr,
                          {serial, parallel});
  ExpectMatchesStepOracle(g, LabelPartition(g), blanks, nullptr,
                          {serial, parallel});
  ContextualHybridInputs in = BuildContextualHybridInputs(cg);
  ASSERT_GT(in.x.size(), internal::kSignGrain);
  size_t predicate_only = 0;
  for (uint8_t flag : in.predicate_only) predicate_only += flag;
  EXPECT_GT(predicate_only, 0u) << "mediation never exercised";
  ExpectContextualMatchesStepOracle(g, in.blanked, in.x, in.mediation,
                                    in.predicate_only, {serial, parallel});
}

TEST(GeneratedChainEquivalence, CategoryChainPair) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(3.0, /*versions=*/2, /*seed=*/5));
  ExpectGeneratedPairMatchesOracle(
      testing::Combine(chain.Version(0), chain.Version(1)));
}

TEST(GeneratedChainEquivalence, EfoChainPair) {
  gen::EfoOptions options;
  options.initial_classes = 2000;
  options.versions = 2;
  options.seed = 5;
  gen::EfoChain chain = gen::EfoChain::Generate(options);
  const TripleGraph& v0 = chain.Version(0);
  ASSERT_FALSE(v0.NodesOfKind(TermKind::kBlank).empty());
  ExpectGeneratedPairMatchesOracle(testing::Combine(v0, chain.Version(1)));
}

TEST(EngineEquivalenceTest, DirtyCountsShrinkOnChainGraph) {
  // A long chain ending in a distinguishing literal: each round can split
  // only one more node, so the worklist must collapse to O(1) per round
  // where a full-rescan step would re-sign every blank.
  GraphBuilder b;
  NodeId p = b.AddUri("ex:p");
  constexpr int kLen = 40;
  std::vector<NodeId> chain;
  for (int i = 0; i < kLen; ++i) chain.push_back(b.AddBlank());
  for (int i = 0; i + 1 < kLen; ++i) b.AddTriple(chain[i], p, chain[i + 1]);
  b.AddTriple(chain[kLen - 1], p, b.AddLiteral("end"));
  TripleGraph g = std::move(b.Build(true)).value();

  RefinementStats stats;
  Partition fix = BisimRefineFixpoint(g, LabelPartition(g),
                                      g.NodesOfKind(TermKind::kBlank),
                                      &stats);
  EXPECT_EQ(stats.final_classes, fix.NumColors());
  ASSERT_GE(stats.dirty_per_iteration.size(), 3u);
  // After the full first pass the worklist is tiny (the split frontier).
  for (size_t i = 1; i < stats.dirty_per_iteration.size(); ++i) {
    EXPECT_LE(stats.dirty_per_iteration[i], 2u) << "iteration " << i;
  }
  EXPECT_GT(stats.signature_bytes, 0u);
}

}  // namespace
}  // namespace rdfalign
