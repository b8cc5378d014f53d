#include "core/refinement.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "core/worklist_engine.h"
#include "util/hash.h"

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

// Shared fixpoint driver: `mask == nullptr` selects plain refinement. The
// worklist engine lives in core/worklist_engine.cc (it is shared with the
// contextual refinement of core/context.cc).
Partition RefineFixpointImpl(const TripleGraph& g, const Partition& initial,
                             const std::vector<NodeId>& x,
                             const std::vector<uint8_t>* mask,
                             const RefinementOptions& options,
                             RefinementStats* stats) {
  internal::WorklistConfig config;
  config.predicate_mask = mask;
  config.threads = options.threads;
  return internal::RunWorklistFixpoint(g, initial, x, config, stats);
}

// Shared one-step reference (Definition 3): `mask == nullptr` keeps every
// out-pair, otherwise only pairs whose predicate the mask marks.
Partition RefineStepImpl(const TripleGraph& g, const Partition& p,
                         const std::vector<NodeId>& x,
                         const std::vector<uint8_t>* mask) {
  const size_t n = g.NumNodes();
  assert(p.NumNodes() == n);

  std::vector<uint8_t> in_x(n, 0);
  for (NodeId node : x) in_x[node] = 1;

  SignatureMap cons;
  cons.reserve(n);
  std::vector<ColorId> next(n);

  std::vector<uint32_t> sig;
  std::vector<uint64_t> pairs;
  for (NodeId node = 0; node < n; ++node) {
    sig.clear();
    if (!in_x[node]) {
      sig.push_back(kKeepTag);
      sig.push_back(p.ColorOf(node));
    } else {
      // Gather the out-neighborhood color pairs as a *set* (eq. 1).
      pairs.clear();
      for (const PredicateObject& po : g.Out(node)) {
        if (mask != nullptr && !(*mask)[po.p]) continue;  // non-key attribute
        pairs.push_back(PackPair(p.ColorOf(po.p), p.ColorOf(po.o)));
      }
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      sig.push_back(kRecolorTag);
      sig.push_back(p.ColorOf(node));
      for (uint64_t pair : pairs) {
        sig.push_back(UnpackHi(pair));
        sig.push_back(UnpackLo(pair));
      }
    }
    next[node] = ConsSignature(cons, std::vector<uint32_t>(sig));
  }
  return Partition::FromColors(std::move(next));
}

}  // namespace

Partition BisimRefineStep(const TripleGraph& g, const Partition& p,
                          const std::vector<NodeId>& x) {
  return RefineStepImpl(g, p, x, nullptr);
}

Partition BisimRefineFixpoint(const TripleGraph& g, Partition initial,
                              const std::vector<NodeId>& x,
                              RefinementStats* stats,
                              const RefinementOptions& options) {
  return RefineFixpointImpl(g, initial, x, nullptr, options, stats);
}

Partition BlankColors(const Partition& p, const std::vector<NodeId>& x) {
  std::vector<ColorId> colors(p.colors());
  // A color id beyond every existing color acts as the fresh blank color ⊥b.
  const ColorId blank = static_cast<ColorId>(p.NumColors());
  for (NodeId node : x) colors[node] = blank;
  return Partition::FromColors(std::move(colors));
}

std::vector<uint8_t> BuildPredicateMask(
    const TripleGraph& g, const std::vector<std::string>& predicate_uris) {
  std::vector<uint8_t> mask(g.NumNodes(), 0);
  for (const std::string& uri : predicate_uris) {
    // The combined graph can hold one node per side for the same URI; mark
    // every node carrying the label.
    LexId lex = g.dict().Find(uri);
    if (lex == kInvalidLex) continue;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.IsUri(n) && g.LexicalId(n) == lex) mask[n] = 1;
    }
  }
  return mask;
}

Partition BisimRefineStepKeyed(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const std::vector<uint8_t>& predicate_mask) {
  return RefineStepImpl(g, p, x, &predicate_mask);
}

Partition BisimRefineFixpointKeyed(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const std::vector<uint8_t>& predicate_mask,
                                   RefinementStats* stats,
                                   const RefinementOptions& options) {
  return RefineFixpointImpl(g, initial, x, &predicate_mask, options, stats);
}

}  // namespace rdfalign
