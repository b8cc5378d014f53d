#include "core/refinement.h"

#include <utility>

#include "core/worklist_engine.h"

namespace rdfalign {

namespace {

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

}  // namespace

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

Partition BisimRefineFixpointKeyed(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const std::vector<uint8_t>& predicate_mask,
                                   RefinementStats* stats,
                                   const RefinementOptions& options) {
  return RefineFixpointImpl(g, initial, x, &predicate_mask, options, stats);
}

}  // namespace rdfalign
