// All-pairs candidate generation for Algorithm 1 (§4.6): every (a, b) pair
// screened by overlap >= θ, then verified by σ < θ. The overlap-index
// ablation times OverlapMatch against it, and the overlap tests use it as
// the oracle for OverlapMatch's edge set.

#ifndef RDFALIGN_CORE_OVERLAP_BRUTE_FORCE_H_
#define RDFALIGN_CORE_OVERLAP_BRUTE_FORCE_H_

#include <functional>
#include <vector>

#include "core/overlap.h"

namespace rdfalign {

/// Brute-force all pairs with OverlapMatch's screening (overlap >= θ, then
/// σ < θ). O(|A|·|B|).
BipartiteMatching OverlapMatchBruteForce(
    const std::vector<NodeId>& a_nodes, const std::vector<NodeId>& b_nodes,
    const CharacterizingSets& a_char, const CharacterizingSets& b_char,
    double theta, const std::function<double(size_t, size_t)>& sigma);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_OVERLAP_BRUTE_FORCE_H_
