#include "core/overlap_brute_force.h"

namespace rdfalign {

BipartiteMatching OverlapMatchBruteForce(
    const std::vector<NodeId>& a_nodes, const std::vector<NodeId>& b_nodes,
    const CharacterizingSets& a_char, const CharacterizingSets& b_char,
    double theta, const std::function<double(size_t, size_t)>& sigma) {
  BipartiteMatching h;
  for (uint32_t ai = 0; ai < a_nodes.size(); ++ai) {
    if (a_char[ai].empty()) continue;
    for (uint32_t bi = 0; bi < b_nodes.size(); ++bi) {
      if (OverlapMeasure(a_char[ai], b_char[bi]) < theta) continue;
      double d = sigma(ai, bi);
      if (d < theta) {
        h.edges.push_back(MatchEdge{a_nodes[ai], b_nodes[bi], d});
      }
    }
  }
  return h;
}

}  // namespace rdfalign
