// Test-only oracles for the alignment pipeline's glue: the hash-map/
// tree-based implementations that the flat dense-ID rewrite replaced —
// Partition ops, the union of two versions, edge/delta statistics, pair
// enumeration, and the unordered-map inverted index of Algorithm 1.
//
// tests/pipeline_equivalence_test.cc checks the production code against
// them on random, non-contiguous, adversarial, and generated inputs. Do
// not "optimize" them: their value is being a faithful, obviously correct
// copy of the old semantics.
//
// The second half holds the paper's own definitions, which no production
// path calls: the Definition 3 one-step refinement (plain, keyed and
// contextual; tests/refinement_equivalence_test.cc iterates it against the
// worklist engine) and the Definition 2 brute-force maximal bisimulation.
// They keep the names they had in the library, in namespace rdfalign.

#ifndef RDFALIGN_TESTS_PIPELINE_ORACLE_H_
#define RDFALIGN_TESTS_PIPELINE_ORACLE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/alignment.h"
#include "core/context.h"
#include "core/delta.h"
#include "core/enrich.h"
#include "core/overlap.h"
#include "core/partition.h"
#include "core/refinement.h"
#include "core/worklist_engine.h"
#include "rdf/merge.h"
#include "rdf/statistics.h"
#include "util/result.h"

namespace rdfalign::oracle {

/// Per-node characterizing sets as the pre-rewrite per-node heap vectors.
using VectorCharSets = std::vector<std::vector<uint64_t>>;

/// First-occurrence dense renumbering via std::unordered_map (the old
/// Partition::FromColors). Returns the renumbered vector and class count.
std::pair<std::vector<ColorId>, size_t> RenumberFirstOccurrence(
    std::vector<ColorId> colors);

/// Hash-map bijection check (the old Partition::Equivalent).
bool PartitionEquivalent(const Partition& a, const Partition& b);

/// Hash-map refinement check (the old Partition::IsFinerOrEqual).
bool PartitionIsFinerOrEqual(const Partition& fine, const Partition& coarse);

/// Per-class member vectors (the old Partition::Classes shape).
std::vector<std::vector<NodeId>> PartitionClassesVectors(const Partition& p);

/// The union G1 ⊎ G2 the slow way: concatenate the parts and rebuild
/// every index through TripleGraph::FromParts (the old
/// CombinedGraph::Build). Target ids are shifted by g1.NumNodes().
Result<TripleGraph> ReindexedUnion(const TripleGraph& g1,
                                   const TripleGraph& g2);

/// The old hash-keyed label partitions.
Partition LabelPartition(const TripleGraph& g);
Partition TrivialPartition(const TripleGraph& g);

/// λ_Hybrid from an arbitrary base partition, as §3.4 defines it:
/// BisimRefine*_X(Blank(base, X)) with X = UN(base) (ascending), then every
/// blank node not already in it (ascending). The production HybridPartition
/// starts from λ_Trivial, where every blank is already in UN; this is the
/// "from any base" reference it is tested against.
Partition HybridPartitionFromBase(const CombinedGraph& cg,
                                  const Partition& base,
                                  RefinementStats* stats = nullptr,
                                  const RefinementOptions& options = {});

/// The old hash-set edge-alignment statistics.
EdgeAlignmentStats ComputeEdgeAlignment(const CombinedGraph& cg,
                                        const Partition& p);

/// The old hash-multiset delta.
RdfDelta ComputeDelta(const CombinedGraph& cg, const Partition& p);

/// The serial side-bit loop that ComputeClassSides ran at threads=1.
std::vector<ClassSides> ComputeClassSides(const CombinedGraph& cg,
                                          const Partition& p);

/// The serial counting loops that ComputeNodeAlignment ran at threads=1.
NodeAlignmentStats ComputeNodeAlignment(const CombinedGraph& cg,
                                        const Partition& p);

/// The serial flag and counting passes that ComputeStatistics ran at
/// threads=1.
GraphStatistics ComputeStatistics(const TripleGraph& g);

/// The old unordered-map pair enumeration (class iteration order follows
/// the hash map, so pair order is unspecified; contents are what matter).
std::vector<std::pair<NodeId, NodeId>> EnumerateAlignedPairs(
    const CombinedGraph& cg, const Partition& p, size_t limit = SIZE_MAX);

/// The old std::set/std::multimap crossover check.
bool HasCrossoverProperty(const std::vector<std::pair<NodeId, NodeId>>& pairs);

/// Algorithm 1 with the old unordered_map<uint64_t, vector<uint32_t>>
/// inverted index over per-node heap vectors. Deterministic: produces the
/// same edge list and counter values as the CSR rewrite.
BipartiteMatching OverlapMatch(
    const std::vector<NodeId>& a_nodes, const std::vector<NodeId>& b_nodes,
    const VectorCharSets& a_char, const VectorCharSets& b_char, double theta,
    const std::function<double(size_t, size_t)>& sigma,
    const OverlapMatchOptions& options = {},
    OverlapMatchStats* stats = nullptr);

}  // namespace rdfalign::oracle

namespace rdfalign {

namespace internal {

/// The Definition 3 reference step for the signature shape `config`
/// describes (its `threads` is ignored): every node of X is recolored by
/// its full signature, every other node keeps its color, and the
/// signatures are consed through a hash map. BisimRefineStep,
/// BisimRefineStepKeyed and ContextualRefineStep are this body; the
/// worklist engine is tested against it.
Partition RefineStepReference(const TripleGraph& g, const Partition& p,
                              const std::vector<NodeId>& x,
                              const WorklistConfig& config);

}  // namespace internal

/// One-step refinement BisimRefine_X(λ): recolors exactly the nodes in X by
/// signature; all other nodes keep their class. X entries must be valid node
/// ids of `g`.
Partition BisimRefineStep(const TripleGraph& g, const Partition& p,
                          const std::vector<NodeId>& x);

/// One-step keyed refinement: as BisimRefineStep, but only out-pairs whose
/// predicate node is marked in `predicate_mask` enter the signature.
Partition BisimRefineStepKeyed(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const std::vector<uint8_t>& predicate_mask);

/// One contextual refinement step: nodes in X are recolored by the usual
/// out-neighborhood signature, and nodes in X that are predicate-only URIs
/// additionally carry their mediation signature.
Partition ContextualRefineStep(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const MediationIndex& mediation,
                               const std::vector<uint8_t>& predicate_only);

/// The maximal bisimulation by iterated removal of violating pairs from the
/// same-label relation. O(V²·E).
std::vector<std::pair<NodeId, NodeId>> MaximalBisimulationBruteForce(
    const TripleGraph& g);

/// Checks Definition 2 directly: is `relation` (as a set of pairs) a
/// bisimulation on G?
bool IsBisimulation(const TripleGraph& g,
                    const std::vector<std::pair<NodeId, NodeId>>& relation);

}  // namespace rdfalign

#endif  // RDFALIGN_TESTS_PIPELINE_ORACLE_H_
