#include "core/delta.h"

#include <algorithm>
#include <unordered_map>

#include "core/side_keys.h"
#include "util/thread_pool.h"

namespace rdfalign {

RdfDelta ComputeDelta(const CombinedGraph& cg, const Partition& p,
                      size_t threads) {
  const TripleGraph& g = cg.graph();
  const std::span<const Triple> triples = g.triples();
  RdfDelta delta;

  // Each side's edges as (color key, triple index) pairs sorted by key then
  // index; equal-key runs are matched by one linear merge. Within a run the
  // indexes ascend, which is exactly the old hash-multiset's greedy
  // first-come matching order, so which edges end up deleted/added is
  // bit-identical.
  struct KeyIdx {
    internal::TripleKey key;
    uint64_t idx;  // triple index; CSR offsets are 64-bit, so follow suit
    auto operator<=>(const KeyIdx&) const = default;
  };
  std::vector<KeyIdx> src;
  std::vector<KeyIdx> tgt;
  internal::BuildSideKeys(
      cg, threads,
      [&](const Triple& t, size_t i) {
        return KeyIdx{internal::ColorKey(p, t), static_cast<uint64_t>(i)};
      },
      internal::KeepAll{}, src, tgt);
  ParallelSort(src, threads);
  ParallelSort(tgt, threads);

  // A source run of cs edges and a target run of ct edges with one key
  // match min(cs, ct) pairs: the first min source edges are unchanged, the
  // rest deleted; the first min target edges are unchanged, the rest added.
  std::vector<uint8_t> changed(triples.size(), 0);  // per-triple verdict
  size_t i = 0;
  size_t j = 0;
  while (i < src.size() || j < tgt.size()) {
    if (j >= tgt.size() || (i < src.size() && src[i].key < tgt[j].key)) {
      changed[src[i].idx] = 1;  // deletion: no target run for this key
      ++i;
    } else if (i >= src.size() || tgt[j].key < src[i].key) {
      changed[tgt[j].idx] = 1;  // addition: no source run for this key
      ++j;
    } else {
      const internal::TripleKey key = src[i].key;
      size_t i_end = i;
      while (i_end < src.size() && src[i_end].key == key) ++i_end;
      size_t j_end = j;
      while (j_end < tgt.size() && tgt[j_end].key == key) ++j_end;
      const size_t m = std::min(i_end - i, j_end - j);
      delta.unchanged += m;
      for (size_t x = i + m; x < i_end; ++x) changed[src[x].idx] = 1;
      for (size_t x = j + m; x < j_end; ++x) changed[tgt[x].idx] = 1;
      i = i_end;
      j = j_end;
    }
  }
  // Emit in original triple order, like the old per-edge replay did.
  for (size_t t = 0; t < triples.size(); ++t) {
    if (!changed[t]) continue;
    (cg.InSource(triples[t].s) ? delta.deleted : delta.added)
        .push_back(triples[t]);
  }

  // Renames: classes holding URI nodes of both sides with differing labels.
  // Counting-sort CSRs over the dense colors, one per side; classes are
  // visited in ascending color order (deterministic, unlike the old
  // unordered_map walk — rename order within a class is unchanged).
  const size_t num_colors = p.NumColors();
  std::vector<uint32_t> src_off(num_colors + 1, 0);
  std::vector<uint32_t> tgt_off(num_colors + 1, 0);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (!g.IsUri(n)) continue;
    ++(cg.InSource(n) ? src_off : tgt_off)[p.ColorOf(n) + 1];
  }
  for (size_t c = 0; c < num_colors; ++c) {
    src_off[c + 1] += src_off[c];
    tgt_off[c + 1] += tgt_off[c];
  }
  std::vector<NodeId> src_uris(src_off[num_colors]);
  std::vector<NodeId> tgt_uris(tgt_off[num_colors]);
  {
    std::vector<uint32_t> src_cur(src_off.begin(), src_off.end() - 1);
    std::vector<uint32_t> tgt_cur(tgt_off.begin(), tgt_off.end() - 1);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (!g.IsUri(n)) continue;
      const ColorId c = p.ColorOf(n);
      if (cg.InSource(n)) {
        src_uris[src_cur[c]++] = n;
      } else {
        tgt_uris[tgt_cur[c]++] = n;
      }
    }
  }
  for (size_t c = 0; c < num_colors; ++c) {
    for (uint32_t i = src_off[c]; i < src_off[c + 1]; ++i) {
      for (uint32_t j = tgt_off[c]; j < tgt_off[c + 1]; ++j) {
        const NodeId a = src_uris[i];
        const NodeId b = tgt_uris[j];
        if (g.LexicalId(a) != g.LexicalId(b)) {
          delta.renamed_uris.push_back(UriRename{
              a, b, std::string(g.Lexical(a)), std::string(g.Lexical(b))});
        }
      }
    }
  }
  return delta;
}

size_t VersionNodeMap::MappedCount() const {
  size_t mapped = 0;
  for (NodeId b : next_to_base) {
    if (b != kInvalidNode) ++mapped;
  }
  return mapped;
}

VersionNodeMap NodeMapFromPartition(const CombinedGraph& cg,
                                    const Partition& p) {
  // Per class: the smallest source node and the smallest target node.
  // Scanning combined ids ascending visits all source nodes before any
  // target node, so first-write-wins gives the minimum of each side.
  const size_t num_colors = p.NumColors();
  std::vector<NodeId> first_source(num_colors, kInvalidNode);
  std::vector<NodeId> first_target(num_colors, kInvalidNode);
  const NodeId total = cg.n1() + cg.n2();
  for (NodeId n = 0; n < total; ++n) {
    NodeId& slot =
        cg.InSource(n) ? first_source[p.ColorOf(n)] : first_target[p.ColorOf(n)];
    if (slot == kInvalidNode) slot = n;
  }
  VersionNodeMap map;
  map.next_to_base.assign(cg.n2(), kInvalidNode);
  for (size_t c = 0; c < num_colors; ++c) {
    if (first_source[c] != kInvalidNode && first_target[c] != kInvalidNode) {
      map.next_to_base[cg.ToLocal(first_target[c])] =
          first_source[c];  // source ids are already graph-local
    }
  }
  return map;
}

VersionNodeMap NodeMapFromEntities(const std::vector<uint64_t>& base_entities,
                                   const std::vector<uint64_t>& next_entities) {
  std::unordered_map<uint64_t, NodeId> smallest_base;
  smallest_base.reserve(base_entities.size());
  for (NodeId b = 0; b < base_entities.size(); ++b) {
    smallest_base.emplace(base_entities[b], b);  // first wins = smallest
  }
  VersionNodeMap map;
  map.next_to_base.assign(next_entities.size(), kInvalidNode);
  for (NodeId n = 0; n < next_entities.size(); ++n) {
    auto it = smallest_base.find(next_entities[n]);
    if (it != smallest_base.end()) {
      map.next_to_base[n] = it->second;
      smallest_base.erase(it);  // keep the map injective
    }
  }
  return map;
}

std::string DeltaSummary(const RdfDelta& delta) {
  return "+" + std::to_string(delta.added.size()) + " -" +
         std::to_string(delta.deleted.size()) + " ~" +
         std::to_string(delta.unchanged) + ", " +
         std::to_string(delta.renamed_uris.size()) + " renames";
}

}  // namespace rdfalign
