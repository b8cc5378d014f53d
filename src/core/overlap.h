// The overlap heuristic (§4.6, Algorithm 1).
//
// Candidate close pairs between two unaligned node sets are found with an
// inverted index over characterizing objects: each node n is represented by
// a set char(n); nodes sharing rare ("discriminating") objects are probed
// first, candidates are screened with the overlap measure
//     overlap(O1,O2) = |O1 ∩ O2| / |O1 ∪ O2|   (>= θ to pass),
// and survivors are verified with the actual distance function (< θ).
//
// Prefix rule: the paper probes the ⌈kθ⌉ least frequent objects of char(n),
// which is complete for θ > 1/2 (the intersection of size ≥ ⌈θk⌉ cannot
// avoid a prefix of length ⌈kθ⌉ when ⌈kθ⌉ + ⌈θk⌉ > k). For smaller θ the
// sound prefix length is k − ⌈θk⌉ + 1; the default takes the max of both so
// the heuristic is complete at every θ, and `paper_prefix` switches to the
// paper's literal rule (ablated in bench/ablation_overlap_index).
//
// Storage: characterizing sets and the inverted index are CSR structures —
// two flat arrays each — not per-node heap vectors or an unordered_map of
// postings vectors. The equivalence tests pin byte-identical matchings and
// counters against the hash-map implementation it replaced
// (tests/pipeline_oracle.h).

#ifndef RDFALIGN_CORE_OVERLAP_H_
#define RDFALIGN_CORE_OVERLAP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/enrich.h"
#include "rdf/term.h"

namespace rdfalign {

/// Characterizing sets char(n) for a node list: per slot, the sorted
/// deduplicated object ids, stored as one CSR (offsets + items). Sets are
/// appended in order — either wholesale with push_back, or streamed with
/// BeginSet()/Add()/EndSetSortedUnique(), which writes directly into the
/// flat items array and never allocates a per-node vector.
class CharacterizingSets {
 public:
  CharacterizingSets() = default;
  CharacterizingSets(std::initializer_list<std::vector<uint64_t>> sets) {
    for (const auto& s : sets) push_back(s);
  }

  /// Appends a pre-sorted, deduplicated set.
  void push_back(const std::vector<uint64_t>& set) {
    items_.insert(items_.end(), set.begin(), set.end());
    offsets_.push_back(items_.size());
  }

  /// Opens a new set at the end; Add() items, then seal it.
  void BeginSet() {}
  void Add(uint64_t v) { items_.push_back(v); }
  /// Seals the open set: sorts and deduplicates its items in place.
  void EndSetSortedUnique() {
    auto first = items_.begin() + static_cast<ptrdiff_t>(offsets_.back());
    std::sort(first, items_.end());
    items_.erase(std::unique(first, items_.end()), items_.end());
    offsets_.push_back(items_.size());
  }

  void Reserve(size_t sets, size_t items) {
    offsets_.reserve(sets + 1);
    items_.reserve(items);
  }

  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }
  size_t TotalItems() const { return items_.size(); }

  std::span<const uint64_t> operator[](size_t i) const {
    return {items_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

 private:
  std::vector<uint64_t> offsets_{0};  // size() + 1 entries
  std::vector<uint64_t> items_;
};

/// overlap(O1, O2) over sorted object-id spans; overlap(∅,∅) = 1.
/// (Vectors convert implicitly; the initializer_list overloads exist for
/// braced call sites, which cannot deduce a span.)
double OverlapMeasure(std::span<const uint64_t> o1,
                      std::span<const uint64_t> o2);
inline double OverlapMeasure(std::initializer_list<uint64_t> o1,
                             std::initializer_list<uint64_t> o2) {
  return OverlapMeasure(std::span<const uint64_t>(o1.begin(), o1.size()),
                        std::span<const uint64_t>(o2.begin(), o2.size()));
}

/// diff(O1, O2) = 1 − overlap(O1, O2); diff(∅,∅) = 0.
double DiffMeasure(std::span<const uint64_t> o1, std::span<const uint64_t> o2);
inline double DiffMeasure(std::initializer_list<uint64_t> o1,
                          std::initializer_list<uint64_t> o2) {
  return DiffMeasure(std::span<const uint64_t>(o1.begin(), o1.size()),
                     std::span<const uint64_t>(o2.begin(), o2.size()));
}

/// Tuning of OverlapMatch.
struct OverlapMatchOptions {
  /// Use the paper's ⌈kθ⌉ prefix instead of the always-sound length.
  bool paper_prefix = false;
};

/// Statistics of one OverlapMatch run (for the ablation benches and the
/// pipeline phase timings). The counters are deterministic and identical
/// for every thread count and to the test oracle's; the timings are not
/// part of any equivalence contract.
struct OverlapMatchStats {
  size_t candidates_probed = 0;   ///< inverted-index postings touched
  size_t overlap_checked = 0;     ///< candidate pairs screened by overlap
  size_t sigma_checked = 0;       ///< pairs verified with σ
  size_t matched = 0;             ///< edges emitted
  double index_ms = 0;            ///< postings-CSR build wall time
  double probe_ms = 0;            ///< candidate probing + σ wall time
};

/// Algorithm 1. `a_nodes`/`b_nodes` are combined-graph ids with their
/// characterizing sets in `a_char`/`b_char` (parallel structures); `sigma`
/// is the verifying distance on (a-index, b-index) positions. Returns the
/// weighted bipartite graph H of pairs with σ < θ.
///
/// `threads` > 1 sorts the postings and probes A-side chunks on the shared
/// pool (per-chunk stamp arrays, counters, and edge buffers folded in
/// ascending chunk order); the matching edges, their order, and every
/// counter in `stats` are bit-identical for any thread count. `sigma` must
/// then be safe to call concurrently on distinct pairs (the built-in σ
/// functions only read shared state).
BipartiteMatching OverlapMatch(
    const std::vector<NodeId>& a_nodes, const std::vector<NodeId>& b_nodes,
    const CharacterizingSets& a_char, const CharacterizingSets& b_char,
    double theta,
    const std::function<double(size_t, size_t)>& sigma,
    const OverlapMatchOptions& options = {},
    OverlapMatchStats* stats = nullptr, size_t threads = 1);

/// Reference oracle for tests: brute-force all pairs with the same
/// screening (overlap >= θ, then σ < θ). O(|A|·|B|).
BipartiteMatching OverlapMatchBruteForce(
    const std::vector<NodeId>& a_nodes, const std::vector<NodeId>& b_nodes,
    const CharacterizingSets& a_char, const CharacterizingSets& b_char,
    double theta, const std::function<double(size_t, size_t)>& sigma);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_OVERLAP_H_
