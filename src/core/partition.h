// Partitions of a graph's node set (§2.2).
//
// A partition assigns every node a color; the equivalence classes are the
// sets of nodes with one color. Colors here are dense integers local to a
// Partition instance — the paper's structured colors (derivation trees) are
// realized by hash-consing signatures in the refinement engine, exactly the
// "compact DAG + hashing" representation §3.2 describes.
//
// Every operation on this class is an O(n) array pass over the dense
// ColorIds: because colors_ is always densely renumbered (an invariant
// FromColors establishes), color-keyed lookups use flat arrays indexed by
// ColorId instead of hash maps. The equivalence tests check them against
// hash-map reference implementations (tests/pipeline_oracle.h).

#ifndef RDFALIGN_CORE_PARTITION_H_
#define RDFALIGN_CORE_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/graph.h"
#include "rdf/merge.h"

namespace rdfalign {

/// Dense color identifier within one Partition.
using ColorId = uint32_t;

/// Sentinel for "no color assigned yet" in flat remap tables. A partition
/// can never legitimately hold 2^32 - 1 classes (that would need 2^32
/// nodes, beyond the NodeId space).
inline constexpr ColorId kInvalidColor = 0xffffffffu;

/// CSR view of a partition's classes: the members of class c are
/// `members[offsets[c] .. offsets[c+1])`, ascending node ids. Built with
/// one counting pass — two flat arrays, no per-class vectors.
struct PartitionClasses {
  std::vector<uint64_t> offsets;  ///< NumColors() + 1 entries
  std::vector<NodeId> members;    ///< NumNodes() entries

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const NodeId> operator[](size_t c) const {
    return {members.data() + offsets[c], offsets[c + 1] - offsets[c]};
  }
};

/// A partition λ : N_G -> C with dense integer colors.
class Partition {
 public:
  Partition() = default;

  /// All nodes in one class (color 0).
  explicit Partition(size_t num_nodes)
      : colors_(num_nodes, 0), num_colors_(num_nodes == 0 ? 0 : 1) {}

  /// Adopts a color vector; renumbers colors densely (first-occurrence
  /// order) and records the class count. Input colors need not be dense or
  /// contiguous.
  static Partition FromColors(std::vector<ColorId> colors);

  size_t NumNodes() const { return colors_.size(); }
  size_t NumColors() const { return num_colors_; }

  ColorId ColorOf(NodeId n) const { return colors_[n]; }
  const std::vector<ColorId>& colors() const { return colors_; }

  /// Two partitions of the same node set are equivalent iff they induce the
  /// same equivalence relation (λ1 ≡ λ2, §2.2).
  static bool Equivalent(const Partition& a, const Partition& b);

  /// True iff `fine` refines `coarse`: every class of `fine` is contained
  /// in a class of `coarse` (R_fine ⊆ R_coarse).
  static bool IsFinerOrEqual(const Partition& fine, const Partition& coarse);

  /// Groups node ids by color as a CSR (members ascending within a class).
  PartitionClasses Classes() const;

 private:
  std::vector<ColorId> colors_;
  size_t num_colors_ = 0;
};

/// The node-labeling partition ℓ_G: nodes grouped by label, all blank nodes
/// in one class (§2.2). This is the initial partition of every bisimulation
/// refinement.
Partition LabelPartition(const TripleGraph& g);

/// The trivial-alignment partition λ_Trivial (§3.1): non-blank nodes grouped
/// by label equality, every blank node a singleton class.
Partition TrivialPartition(const TripleGraph& g);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_PARTITION_H_
