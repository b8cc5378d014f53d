// Alignments defined by partitions (§3.1) and the evaluation metrics of §5.
//
// Align(λ) = {(n,m) ∈ N1×N2 | λ(n) = λ(m)} is never materialized for large
// graphs; the functions here compute the statistics the paper reports
// (aligned-edge ratios of Fig. 10/11, deduplicated aligned-node counts of
// Fig. 13) directly from class membership.

#ifndef RDFALIGN_CORE_ALIGNMENT_H_
#define RDFALIGN_CORE_ALIGNMENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "rdf/merge.h"

namespace rdfalign {

/// Which side(s) of the combined graph a class touches.
enum class ClassSides : uint8_t {
  kNeither = 0,
  kSourceOnly = 1,
  kTargetOnly = 2,
  kBoth = 3,
};

/// For each color, whether the class contains source and/or target nodes.
/// Each node stores a flag for its class on its side (relaxed stores, so
/// order-insensitive); `threads` > 1 runs the chunks on the shared pool,
/// with the same result for any thread count.
std::vector<ClassSides> ComputeClassSides(const CombinedGraph& cg,
                                          const Partition& p,
                                          size_t threads = 1);

/// Unaligned(λ): nodes whose class contains no node of the opposite side
/// (§3.1). Sorted ascending.
std::vector<NodeId> UnalignedNodes(const CombinedGraph& cg,
                                   const Partition& p);

/// UN(λ) = Unaligned(λ) \ Literals(G) (eq. 4): the nodes the hybrid method
/// re-identifies.
std::vector<NodeId> UnalignedNonLiterals(const CombinedGraph& cg,
                                         const Partition& p);

/// Aligned-edge statistics for the Fig. 10/11 metric: the ratio of aligned
/// edges to all edges of both graphs, counting an edge that uses precisely
/// the same (non-blank) identifiers in both versions only once.
struct EdgeAlignmentStats {
  size_t total_edges = 0;    ///< deduplicated edge count of both versions
  size_t aligned_edges = 0;  ///< of those, edges aligned by the partition
  double Ratio() const {
    return total_edges == 0
               ? 1.0
               : static_cast<double>(aligned_edges) / total_edges;
  }
};

/// `threads` > 1 builds the packed-key multisets in deterministic chunk
/// order and sorts them with ParallelSort; all counters are bit-identical
/// for any thread count. See docs/parallelism.md.
EdgeAlignmentStats ComputeEdgeAlignment(const CombinedGraph& cg,
                                        const Partition& p,
                                        size_t threads = 1);

/// Aligned-node statistics for Fig. 13. `aligned_classes` counts classes
/// containing nodes of both sides — the deduplicated "number of aligned
/// nodes" (two URIs representing the same entity count once).
struct NodeAlignmentStats {
  size_t aligned_classes = 0;
  size_t aligned_source_nodes = 0;
  size_t aligned_target_nodes = 0;
  size_t unaligned_source_nodes = 0;
  size_t unaligned_target_nodes = 0;
};

NodeAlignmentStats ComputeNodeAlignment(const CombinedGraph& cg,
                                        const Partition& p,
                                        size_t threads = 1);

/// Materializes Align(λ) as (source-combined-id, target-combined-id) pairs.
/// Intended for tests and small graphs; stops after `limit` pairs.
std::vector<std::pair<NodeId, NodeId>> EnumerateAlignedPairs(
    const CombinedGraph& cg, const Partition& p, size_t limit = SIZE_MAX);

/// Checks the crossover property (§3.1): (n,m),(n,m'),(n',m) aligned imply
/// (n',m') aligned. Partition-defined alignments always satisfy it; the
/// checker exists for tests and for externally supplied alignments.
bool HasCrossoverProperty(
    const std::vector<std::pair<NodeId, NodeId>>& pairs);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_ALIGNMENT_H_
