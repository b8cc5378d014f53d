#include "core/overlap.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign {

double OverlapMeasure(std::span<const uint64_t> o1,
                      std::span<const uint64_t> o2) {
  if (o1.empty() && o2.empty()) return 1.0;
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < o1.size() && j < o2.size()) {
    if (o1[i] == o2[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (o1[i] < o2[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = o1.size() + o2.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double DiffMeasure(std::span<const uint64_t> o1,
                   std::span<const uint64_t> o2) {
  return 1.0 - OverlapMeasure(o1, o2);
}

BipartiteMatching OverlapMatch(
    const std::vector<NodeId>& a_nodes, const std::vector<NodeId>& b_nodes,
    const CharacterizingSets& a_char, const CharacterizingSets& b_char,
    double theta, const std::function<double(size_t, size_t)>& sigma,
    const OverlapMatchOptions& options, OverlapMatchStats* stats,
    size_t threads) {
  BipartiteMatching h;
  OverlapMatchStats local;
  if (a_nodes.empty() || b_nodes.empty()) {
    if (stats != nullptr) *stats = local;
    return h;
  }
  // Lines 1-6: inverted index Inv over B's objects, as a counting-sort CSR:
  // (object, bi) pairs sorted by object, then run boundaries. Postings of
  // one object keep ascending bi — the same order the hash-map index's
  // insertion produced — and freq[o] is the run length.
  WallTimer index_timer;
  std::vector<std::pair<uint64_t, uint32_t>> postings;
  std::vector<uint64_t> inv_objects;  // distinct, sorted
  std::vector<uint64_t> inv_offsets;  // runs in postings
  postings.reserve(b_char.TotalItems());
  for (uint32_t bi = 0; bi < b_nodes.size(); ++bi) {
    for (uint64_t o : b_char[bi]) {
      postings.emplace_back(o, bi);
    }
  }
  // (object, bi) pairs are distinct (characterizing sets are deduplicated),
  // so their total order has one sorted permutation for any thread count.
  ParallelSort(postings, threads);
  for (size_t i = 0; i < postings.size();) {
    size_t j = i;
    while (j < postings.size() && postings[j].first == postings[i].first) ++j;
    inv_objects.push_back(postings[i].first);
    inv_offsets.push_back(i);
    i = j;
  }
  inv_offsets.push_back(postings.size());
  // Index of o's posting run, or SIZE_MAX when o indexes nothing.
  auto find_run = [&](uint64_t o) -> size_t {
    auto it = std::lower_bound(inv_objects.begin(), inv_objects.end(), o);
    if (it == inv_objects.end() || *it != o) return SIZE_MAX;
    return static_cast<size_t>(it - inv_objects.begin());
  };
  local.index_ms = index_timer.ElapsedMillis();

  WallTimer probe_timer;
  // Probe order of char(n): ascending (frequency, object) — precomputed per
  // node instead of hash lookups inside the sort comparator. The run index
  // rides along so probing needs no second lookup.
  struct ProbeObject {
    uint64_t freq;
    uint64_t object;
    size_t run;
    auto operator<=>(const ProbeObject&) const = default;
  };
  // Chunks of ascending ai are independent (the stamp/round dedup resets
  // per node). Each chunk owns its per-B visited stamp, probe-order
  // scratch, counters and edges; folding the chunks in chunk order gives
  // the same counters and edge order for any thread count.
  struct ProbeChunk {
    OverlapMatchStats st;
    std::vector<MatchEdge> edges;
  };
  constexpr size_t kProbeGrain = 256;
  std::vector<ProbeChunk> parts(PlanChunks(a_nodes.size(), kProbeGrain));
  auto probe_chunk = [&](size_t c, size_t begin, size_t end) {
    OverlapMatchStats& st = parts[c].st;
    std::vector<MatchEdge>& edges = parts[c].edges;
    std::vector<uint32_t> stamp(b_nodes.size(), 0);
    uint32_t round = 0;
    std::vector<ProbeObject> objects;
    for (uint32_t ai = static_cast<uint32_t>(begin); ai < end; ++ai) {
      const std::span<const uint64_t> chars = a_char[ai];
      if (chars.empty()) continue;
      const size_t k = chars.size();

      // Line 11: objects of char(n) ordered by ascending frequency (the
      // rare, discriminating objects first).
      objects.clear();
      for (uint64_t o : chars) {
        const size_t run = find_run(o);
        const uint64_t freq =
            run == SIZE_MAX ? 0 : inv_offsets[run + 1] - inv_offsets[run];
        objects.push_back(ProbeObject{freq, o, run});
      }
      std::sort(objects.begin(), objects.end());

      // Line 12: the prefix that must contain a shared object of any node
      // with overlap >= θ (see header comment).
      const size_t paper_len = static_cast<size_t>(
          std::ceil(static_cast<double>(k) * theta));
      size_t prefix_len = paper_len;
      if (!options.paper_prefix) {
        const size_t theta_k = static_cast<size_t>(
            std::ceil(static_cast<double>(k) * theta));
        const size_t sound_len = k >= theta_k ? k - theta_k + 1 : 1;
        prefix_len = std::max(paper_len, sound_len);
      }
      prefix_len = std::min(prefix_len, k);

      // Lines 12-15: gather candidates sharing a prefix object, screen by
      // overlap.
      ++round;
      for (size_t i = 0; i < prefix_len; ++i) {
        if (objects[i].run == SIZE_MAX) continue;
        const size_t run_begin = inv_offsets[objects[i].run];
        const size_t run_end = inv_offsets[objects[i].run + 1];
        for (size_t r = run_begin; r < run_end; ++r) {
          const uint32_t bi = postings[r].second;
          ++st.candidates_probed;
          if (stamp[bi] == round) continue;
          stamp[bi] = round;
          ++st.overlap_checked;
          if (OverlapMeasure(chars, b_char[bi]) < theta) continue;
          // Lines 16-19: verify with the distance function.
          ++st.sigma_checked;
          double d = sigma(ai, bi);
          if (d < theta) {
            edges.push_back(MatchEdge{a_nodes[ai], b_nodes[bi], d});
            ++st.matched;
          }
        }
      }
    }
  };
  ParallelChunks(a_nodes.size(), threads, kProbeGrain, probe_chunk);
  for (ProbeChunk& part : parts) {
    local.candidates_probed += part.st.candidates_probed;
    local.overlap_checked += part.st.overlap_checked;
    local.sigma_checked += part.st.sigma_checked;
    local.matched += part.st.matched;
    h.edges.insert(h.edges.end(), part.edges.begin(), part.edges.end());
  }
  local.probe_ms = probe_timer.ElapsedMillis();
  if (stats != nullptr) *stats = local;
  return h;
}

}  // namespace rdfalign
