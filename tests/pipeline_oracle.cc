#include "pipeline_oracle.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "util/hash.h"

namespace rdfalign::oracle {

namespace {

/// 96-bit edge key packed into two 64-bit words for hashing.
struct TripleKey {
  uint64_t hi;
  uint64_t lo;
  bool operator==(const TripleKey&) const = default;
};

struct TripleKeyHash {
  size_t operator()(const TripleKey& k) const {
    return static_cast<size_t>(HashCombine(Mix64(k.hi), k.lo));
  }
};

TripleKey MakeColorKey(const Partition& p, const Triple& t) {
  return TripleKey{PackPair(p.ColorOf(t.s), p.ColorOf(t.p)),
                   static_cast<uint64_t>(p.ColorOf(t.o))};
}

}  // namespace

std::pair<std::vector<ColorId>, size_t> RenumberFirstOccurrence(
    std::vector<ColorId> colors) {
  std::unordered_map<ColorId, ColorId> renumber;
  renumber.reserve(colors.size() / 4 + 8);
  for (ColorId& c : colors) {
    auto [it, inserted] =
        renumber.emplace(c, static_cast<ColorId>(renumber.size()));
    c = it->second;
  }
  return {std::move(colors), renumber.size()};
}

bool PartitionEquivalent(const Partition& a, const Partition& b) {
  if (a.NumNodes() != b.NumNodes()) return false;
  if (a.NumColors() != b.NumColors()) return false;
  std::unordered_map<ColorId, ColorId> a_to_b;
  std::unordered_map<ColorId, ColorId> b_to_a;
  a_to_b.reserve(a.NumColors());
  b_to_a.reserve(b.NumColors());
  for (size_t i = 0; i < a.NumNodes(); ++i) {
    ColorId ca = a.ColorOf(static_cast<NodeId>(i));
    ColorId cb = b.ColorOf(static_cast<NodeId>(i));
    auto [it1, ins1] = a_to_b.emplace(ca, cb);
    if (!ins1 && it1->second != cb) return false;
    auto [it2, ins2] = b_to_a.emplace(cb, ca);
    if (!ins2 && it2->second != ca) return false;
  }
  return true;
}

bool PartitionIsFinerOrEqual(const Partition& fine, const Partition& coarse) {
  if (fine.NumNodes() != coarse.NumNodes()) return false;
  std::unordered_map<ColorId, ColorId> fine_to_coarse;
  fine_to_coarse.reserve(fine.NumColors());
  for (size_t i = 0; i < fine.NumNodes(); ++i) {
    auto [it, inserted] =
        fine_to_coarse.emplace(fine.ColorOf(static_cast<NodeId>(i)),
                               coarse.ColorOf(static_cast<NodeId>(i)));
    if (!inserted && it->second != coarse.ColorOf(static_cast<NodeId>(i))) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<NodeId>> PartitionClassesVectors(const Partition& p) {
  std::vector<std::vector<NodeId>> out(p.NumColors());
  for (NodeId i = 0; i < p.NumNodes(); ++i) {
    out[p.ColorOf(i)].push_back(i);
  }
  return out;
}

Result<TripleGraph> ReindexedUnion(const TripleGraph& g1,
                                   const TripleGraph& g2) {
  const NodeId n1 = static_cast<NodeId>(g1.NumNodes());
  std::vector<NodeLabel> labels;
  labels.reserve(g1.NumNodes() + g2.NumNodes());
  labels.insert(labels.end(), g1.labels().begin(), g1.labels().end());
  labels.insert(labels.end(), g2.labels().begin(), g2.labels().end());

  std::vector<Triple> triples;
  triples.reserve(g1.NumEdges() + g2.NumEdges());
  triples.insert(triples.end(), g1.triples().begin(), g1.triples().end());
  for (const Triple& t : g2.triples()) {
    triples.push_back(Triple{t.s + n1, t.p + n1, t.o + n1});
  }
  // The union is a triple graph, not an RDF graph: skip RDF validation
  // (label uniqueness does not hold across sides by design).
  return TripleGraph::FromParts(g1.dict_ptr(), std::move(labels),
                                std::move(triples), /*validate_rdf=*/false);
}

Partition LabelPartition(const TripleGraph& g) {
  std::vector<ColorId> colors(g.NumNodes());
  std::unordered_map<uint64_t, ColorId> by_label;
  by_label.reserve(g.NumNodes());
  constexpr uint64_t kBlankKey = ~0ULL;
  for (NodeId i = 0; i < g.NumNodes(); ++i) {
    uint64_t key;
    if (g.IsBlank(i)) {
      key = kBlankKey;
    } else {
      key = (static_cast<uint64_t>(g.KindOf(i)) << 33) | g.LexicalId(i);
    }
    auto [it, inserted] =
        by_label.emplace(key, static_cast<ColorId>(by_label.size()));
    colors[i] = it->second;
  }
  return Partition::FromColors(std::move(colors));
}

Partition TrivialPartition(const TripleGraph& g) {
  std::vector<ColorId> colors(g.NumNodes());
  std::unordered_map<uint64_t, ColorId> by_label;
  by_label.reserve(g.NumNodes());
  ColorId next = 0;
  for (NodeId i = 0; i < g.NumNodes(); ++i) {
    if (g.IsBlank(i)) {
      colors[i] = next++;
      continue;
    }
    uint64_t key = (static_cast<uint64_t>(g.KindOf(i)) << 33) | g.LexicalId(i);
    auto it = by_label.find(key);
    if (it == by_label.end()) {
      it = by_label.emplace(key, next++).first;
    }
    colors[i] = it->second;
  }
  return Partition::FromColors(std::move(colors));
}

Partition HybridPartitionFromBase(const CombinedGraph& cg,
                                  const Partition& base,
                                  RefinementStats* stats,
                                  const RefinementOptions& options) {
  // Including the already-aligned blanks re-derives their deblank colors
  // inside the refinement, which realizes the paper's structured-color
  // semantics: a previously unaligned node whose unfolding coincides with
  // an aligned blank's derivation tree lands in that blank's class (colors
  // are built in one color space). It also makes the choice of base
  // partition irrelevant beyond its aligned/unaligned verdicts, which is
  // why starting from λ_Trivial or λ_Deblank yields the same partition
  // (§3.4).
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> x = UnalignedNonLiterals(cg, base);
  std::vector<uint8_t> in_x(g.NumNodes(), 0);
  for (NodeId n : x) in_x[n] = 1;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsBlank(n) && !in_x[n]) x.push_back(n);
  }
  Partition blanked = BlankColors(base, x);
  return BisimRefineFixpoint(g, std::move(blanked), x, stats, options);
}

EdgeAlignmentStats ComputeEdgeAlignment(const CombinedGraph& cg,
                                        const Partition& p) {
  const TripleGraph& g = cg.graph();

  auto label_key = [&](const Triple& t) -> TripleKey {
    return TripleKey{PackPair(g.LexicalId(t.s), g.LexicalId(t.p)),
                     static_cast<uint64_t>(g.LexicalId(t.o)) |
                         (static_cast<uint64_t>(g.KindOf(t.o)) << 32)};
  };
  auto has_blank = [&](const Triple& t) {
    return g.IsBlank(t.s) || g.IsBlank(t.p) || g.IsBlank(t.o);
  };

  std::unordered_set<TripleKey, TripleKeyHash> source_label_edges;
  source_label_edges.reserve(cg.e1());
  for (const Triple& t : g.triples()) {
    if (cg.InSource(t.s) && !has_blank(t)) {
      source_label_edges.insert(label_key(t));
    }
  }
  size_t merged = 0;
  for (const Triple& t : g.triples()) {
    if (cg.InTarget(t.s) && !has_blank(t) &&
        source_label_edges.count(label_key(t)) > 0) {
      ++merged;
    }
  }

  std::unordered_set<TripleKey, TripleKeyHash> source_colors;
  std::unordered_set<TripleKey, TripleKeyHash> target_colors;
  source_colors.reserve(cg.e1());
  target_colors.reserve(cg.e2());
  for (const Triple& t : g.triples()) {
    if (cg.InSource(t.s)) {
      source_colors.insert(MakeColorKey(p, t));
    } else {
      target_colors.insert(MakeColorKey(p, t));
    }
  }
  size_t aligned = 0;
  for (const Triple& t : g.triples()) {
    const auto& opposite = cg.InSource(t.s) ? target_colors : source_colors;
    if (opposite.count(MakeColorKey(p, t)) > 0) ++aligned;
  }
  aligned -= merged;

  EdgeAlignmentStats stats;
  stats.total_edges = cg.e1() + cg.e2() - merged;
  stats.aligned_edges = aligned;
  return stats;
}

RdfDelta ComputeDelta(const CombinedGraph& cg, const Partition& p) {
  const TripleGraph& g = cg.graph();
  RdfDelta delta;

  std::unordered_map<TripleKey, size_t, TripleKeyHash> target_counts;
  for (const Triple& t : g.triples()) {
    if (cg.InTarget(t.s)) ++target_counts[MakeColorKey(p, t)];
  }
  std::unordered_map<TripleKey, size_t, TripleKeyHash> consumed;
  for (const Triple& t : g.triples()) {
    if (!cg.InSource(t.s)) continue;
    TripleKey key = MakeColorKey(p, t);
    auto it = target_counts.find(key);
    size_t& used = consumed[key];
    if (it != target_counts.end() && used < it->second) {
      ++used;
      ++delta.unchanged;
    } else {
      delta.deleted.push_back(t);
    }
  }
  std::unordered_map<TripleKey, size_t, TripleKeyHash> seen;
  for (const Triple& t : g.triples()) {
    if (!cg.InTarget(t.s)) continue;
    TripleKey key = MakeColorKey(p, t);
    size_t& cnt = seen[key];
    ++cnt;
    auto it = consumed.find(key);
    size_t matched = it == consumed.end() ? 0 : it->second;
    if (cnt > matched) delta.added.push_back(t);
  }

  std::unordered_map<ColorId,
                     std::pair<std::vector<NodeId>, std::vector<NodeId>>>
      uri_classes;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (!g.IsUri(n)) continue;
    auto& entry = uri_classes[p.ColorOf(n)];
    (cg.InSource(n) ? entry.first : entry.second).push_back(n);
  }
  for (auto& [color, nodes] : uri_classes) {
    for (NodeId a : nodes.first) {
      for (NodeId b : nodes.second) {
        if (g.LexicalId(a) != g.LexicalId(b)) {
          delta.renamed_uris.push_back(UriRename{
              a, b, std::string(g.Lexical(a)), std::string(g.Lexical(b))});
        }
      }
    }
  }
  return delta;
}

std::vector<ClassSides> ComputeClassSides(const CombinedGraph& cg,
                                          const Partition& p) {
  std::vector<uint8_t> bits(p.NumColors(), 0);
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    bits[p.ColorOf(n)] |= cg.InSource(n) ? 1 : 2;
  }
  std::vector<ClassSides> out(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    out[i] = static_cast<ClassSides>(bits[i]);
  }
  return out;
}

NodeAlignmentStats ComputeNodeAlignment(const CombinedGraph& cg,
                                        const Partition& p) {
  std::vector<ClassSides> sides = oracle::ComputeClassSides(cg, p);
  NodeAlignmentStats stats;
  for (const ClassSides s : sides) {
    if (s == ClassSides::kBoth) ++stats.aligned_classes;
  }
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    bool aligned = sides[p.ColorOf(n)] == ClassSides::kBoth;
    if (cg.InSource(n)) {
      aligned ? ++stats.aligned_source_nodes : ++stats.unaligned_source_nodes;
    } else {
      aligned ? ++stats.aligned_target_nodes : ++stats.unaligned_target_nodes;
    }
  }
  return stats;
}

GraphStatistics ComputeStatistics(const TripleGraph& g) {
  GraphStatistics s;
  s.nodes = g.NumNodes();
  s.edges = g.NumEdges();
  const size_t n = g.NumNodes();
  std::vector<uint8_t> as_subject_or_object(n, 0);
  std::vector<uint8_t> as_predicate(n, 0);
  for (const Triple& t : g.triples()) {
    as_subject_or_object[t.s] = 1;
    as_subject_or_object[t.o] = 1;
    as_predicate[t.p] = 1;
  }
  for (NodeId i = 0; i < n; ++i) {
    switch (g.KindOf(i)) {
      case TermKind::kUri:
        ++s.uris;
        if (as_predicate[i] && !as_subject_or_object[i]) {
          ++s.predicate_only_uris;
        }
        break;
      case TermKind::kLiteral:
        ++s.literals;
        break;
      case TermKind::kBlank:
        ++s.blanks;
        break;
    }
    size_t deg = g.OutDegree(i);
    if (deg == 0) ++s.sinks;
    if (deg > s.max_out_degree) s.max_out_degree = deg;
  }
  s.avg_out_degree = n == 0 ? 0.0 : static_cast<double>(s.edges) / n;
  return s;
}

std::vector<std::pair<NodeId, NodeId>> EnumerateAlignedPairs(
    const CombinedGraph& cg, const Partition& p, size_t limit) {
  std::unordered_map<ColorId,
                     std::pair<std::vector<NodeId>, std::vector<NodeId>>>
      classes;
  for (NodeId n = 0; n < p.NumNodes(); ++n) {
    auto& entry = classes[p.ColorOf(n)];
    (cg.InSource(n) ? entry.first : entry.second).push_back(n);
  }
  std::vector<std::pair<NodeId, NodeId>> out;
  for (auto& [color, nodes] : classes) {
    for (NodeId a : nodes.first) {
      for (NodeId b : nodes.second) {
        if (out.size() >= limit) return out;
        out.emplace_back(a, b);
      }
    }
  }
  return out;
}

bool HasCrossoverProperty(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::set<std::pair<NodeId, NodeId>> set(pairs.begin(), pairs.end());
  std::multimap<NodeId, NodeId> by_source;
  std::multimap<NodeId, NodeId> by_target;
  for (const auto& [n, m] : pairs) {
    by_source.emplace(n, m);
    by_target.emplace(m, n);
  }
  for (const auto& [n, m] : pairs) {
    auto ms = by_source.equal_range(n);
    auto ns = by_target.equal_range(m);
    for (auto it1 = ns.first; it1 != ns.second; ++it1) {
      for (auto it2 = ms.first; it2 != ms.second; ++it2) {
        if (set.count({it1->second, it2->second}) == 0) return false;
      }
    }
  }
  return true;
}

BipartiteMatching OverlapMatch(
    const std::vector<NodeId>& a_nodes, const std::vector<NodeId>& b_nodes,
    const VectorCharSets& a_char, const VectorCharSets& b_char, double theta,
    const std::function<double(size_t, size_t)>& sigma,
    const OverlapMatchOptions& options, OverlapMatchStats* stats) {
  BipartiteMatching h;
  OverlapMatchStats local;
  if (a_nodes.empty() || b_nodes.empty()) {
    if (stats != nullptr) *stats = local;
    return h;
  }

  std::unordered_map<uint64_t, std::vector<uint32_t>, U64Hash> inv;
  for (uint32_t bi = 0; bi < b_nodes.size(); ++bi) {
    for (uint64_t o : b_char[bi]) {
      inv[o].push_back(bi);
    }
  }
  auto freq = [&](uint64_t o) -> size_t {
    auto it = inv.find(o);
    return it == inv.end() ? 0 : it->second.size();
  };

  std::vector<uint32_t> stamp(b_nodes.size(), 0);
  uint32_t round = 0;

  std::vector<uint64_t> objects;
  for (uint32_t ai = 0; ai < a_nodes.size(); ++ai) {
    const std::vector<uint64_t>& chars = a_char[ai];
    if (chars.empty()) continue;
    const size_t k = chars.size();

    objects.assign(chars.begin(), chars.end());
    std::sort(objects.begin(), objects.end(),
              [&](uint64_t x, uint64_t y) {
                size_t fx = freq(x);
                size_t fy = freq(y);
                return fx != fy ? fx < fy : x < y;
              });

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

    ++round;
    for (size_t i = 0; i < prefix_len; ++i) {
      auto it = inv.find(objects[i]);
      if (it == inv.end()) continue;
      for (uint32_t bi : it->second) {
        ++local.candidates_probed;
        if (stamp[bi] == round) continue;
        stamp[bi] = round;
        ++local.overlap_checked;
        if (OverlapMeasure(std::span<const uint64_t>(chars),
                           std::span<const uint64_t>(b_char[bi])) < theta) {
          continue;
        }
        ++local.sigma_checked;
        double d = sigma(ai, bi);
        if (d < theta) {
          h.edges.push_back(MatchEdge{a_nodes[ai], b_nodes[bi], d});
          ++local.matched;
        }
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return h;
}

}  // namespace rdfalign::oracle

namespace rdfalign {

namespace {

// Signature tags keep recolored nodes in a different key space from kept
// nodes: recolor_λ(n) is a structured pair and can never equal a plain kept
// color (see §3.2 eq. 1-2).
constexpr uint32_t kKeepTag = 0;
constexpr uint32_t kRecolorTag = 1;

using SignatureMap =
    std::unordered_map<std::vector<uint32_t>, ColorId, U32VectorHash>;

ColorId ConsSignature(SignatureMap& cons, std::vector<uint32_t>&& sig) {
  auto [it, inserted] =
      cons.try_emplace(std::move(sig), static_cast<ColorId>(cons.size()));
  return it->second;
}

bool SameLabel(const TripleGraph& g, NodeId n, NodeId m) {
  if (g.KindOf(n) != g.KindOf(m)) return false;
  if (g.IsBlank(n)) return true;  // all blanks share the label ⊥b
  return g.LexicalId(n) == g.LexicalId(m);
}

/// One direction of Definition 2: every out-pair of n can be simulated by
/// some out-pair of m within `rel`.
bool Simulates(const TripleGraph& g,
               const std::set<std::pair<NodeId, NodeId>>& rel, NodeId n,
               NodeId m) {
  for (const PredicateObject& a : g.Out(n)) {
    bool matched = false;
    for (const PredicateObject& b : g.Out(m)) {
      if (rel.count({a.p, b.p}) > 0 && rel.count({a.o, b.o}) > 0) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace

namespace internal {

Partition RefineStepReference(const TripleGraph& g, const Partition& p,
                              const std::vector<NodeId>& x,
                              const WorklistConfig& config) {
  const size_t n = g.NumNodes();
  assert(p.NumNodes() == n);

  std::vector<uint8_t> in_x(n, 0);
  for (NodeId node : x) in_x[node] = 1;

  SignatureMap cons;
  cons.reserve(n);
  std::vector<ColorId> next(n);

  std::vector<uint32_t> sig;
  std::vector<uint64_t> pairs;
  // Appends the color pairs of `edges` as a *set* (eq. 1), keeping only
  // pairs whose predicate `mask` marks when it is non-null.
  auto append_pairs = [&](std::span<const PredicateObject> edges,
                          const std::vector<uint8_t>* mask) {
    pairs.clear();
    for (const PredicateObject& po : edges) {
      if (mask != nullptr && !(*mask)[po.p]) continue;  // non-key attribute
      pairs.push_back(PackPair(p.ColorOf(po.p), p.ColorOf(po.o)));
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (uint64_t pair : pairs) {
      sig.push_back(UnpackHi(pair));
      sig.push_back(UnpackLo(pair));
    }
  };

  for (NodeId node = 0; node < n; ++node) {
    sig.clear();
    if (!in_x[node]) {
      sig.push_back(kKeepTag);
      sig.push_back(p.ColorOf(node));
    } else {
      sig.push_back(kRecolorTag);
      sig.push_back(p.ColorOf(node));
      append_pairs(g.Out(node), config.predicate_mask);
      if (config.mediation != nullptr && (*config.predicate_only)[node]) {
        // The mediation signature: colors of the (subject, object) pairs
        // of the triples this node mediates, after the out-signature.
        // MediationIndex reuses PredicateObject as a (subject, object) pair.
        sig.push_back(kMediationSeparator);
        append_pairs(config.mediation->Mediated(node), nullptr);
      }
    }
    next[node] = ConsSignature(cons, std::vector<uint32_t>(sig));
  }
  return Partition::FromColors(std::move(next));
}

}  // namespace internal

Partition BisimRefineStep(const TripleGraph& g, const Partition& p,
                          const std::vector<NodeId>& x) {
  return internal::RefineStepReference(g, p, x, internal::WorklistConfig{});
}

Partition BisimRefineStepKeyed(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const std::vector<uint8_t>& predicate_mask) {
  internal::WorklistConfig config;
  config.predicate_mask = &predicate_mask;
  return internal::RefineStepReference(g, p, x, config);
}

Partition ContextualRefineStep(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const MediationIndex& mediation,
                               const std::vector<uint8_t>& predicate_only) {
  internal::WorklistConfig config;
  config.mediation = &mediation;
  config.predicate_only = &predicate_only;
  return internal::RefineStepReference(g, p, x, config);
}

std::vector<std::pair<NodeId, NodeId>> MaximalBisimulationBruteForce(
    const TripleGraph& g) {
  const NodeId n = static_cast<NodeId>(g.NumNodes());
  std::set<std::pair<NodeId, NodeId>> rel;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (SameLabel(g, a, b)) rel.emplace(a, b);
    }
  }
  // Greatest fixpoint: repeatedly delete pairs violating either direction.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = rel.begin(); it != rel.end();) {
      auto [a, b] = *it;
      if (!Simulates(g, rel, a, b) || !Simulates(g, rel, b, a)) {
        it = rel.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  return {rel.begin(), rel.end()};
}

bool IsBisimulation(const TripleGraph& g,
                    const std::vector<std::pair<NodeId, NodeId>>& relation) {
  std::set<std::pair<NodeId, NodeId>> rel(relation.begin(), relation.end());
  for (const auto& [a, b] : rel) {
    if (!SameLabel(g, a, b)) return false;
    if (!Simulates(g, rel, a, b)) return false;
    if (!Simulates(g, rel, b, a)) return false;
  }
  return true;
}

}  // namespace rdfalign
