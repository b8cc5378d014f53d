// Test-only oracles for the alignment pipeline's glue: the hash-map/
// tree-based implementations that the flat dense-ID rewrite replaced —
// Partition ops, the union of two versions, edge/delta statistics, pair
// enumeration, and the unordered-map inverted index of Algorithm 1.
//
// tests/pipeline_equivalence_test.cc checks the production code against
// them on random, non-contiguous, adversarial, and generated inputs. Do
// not "optimize" them: their value is being a faithful, obviously correct
// copy of the old semantics.

#ifndef RDFALIGN_TESTS_PIPELINE_ORACLE_H_
#define RDFALIGN_TESTS_PIPELINE_ORACLE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/alignment.h"
#include "core/delta.h"
#include "core/enrich.h"
#include "core/overlap.h"
#include "core/partition.h"
#include "core/refinement.h"
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

#endif  // RDFALIGN_TESTS_PIPELINE_ORACLE_H_
