#include "core/context.h"

#include <algorithm>

#include "core/alignment.h"
#include "core/worklist_engine.h"

namespace rdfalign {

std::vector<NodeId> PredicateOnlyUris(const TripleGraph& g) {
  std::vector<uint8_t> as_subject_or_object(g.NumNodes(), 0);
  std::vector<uint8_t> as_predicate(g.NumNodes(), 0);
  for (const Triple& t : g.triples()) {
    as_subject_or_object[t.s] = 1;
    as_subject_or_object[t.o] = 1;
    as_predicate[t.p] = 1;
  }
  std::vector<NodeId> out;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.IsUri(n) && as_predicate[n] && !as_subject_or_object[n]) {
      out.push_back(n);
    }
  }
  return out;
}

MediationIndex::MediationIndex(const TripleGraph& g) {
  const size_t n = g.NumNodes();
  offsets_.assign(n + 1, 0);
  for (const Triple& t : g.triples()) {
    ++offsets_[t.p + 1];
  }
  for (size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  pairs_.resize(g.NumEdges());
  {
    std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (const Triple& t : g.triples()) {
      pairs_[cursor[t.p]++] = PredicateObject{t.s, t.o};
    }
  }
  for (size_t i = 0; i < n; ++i) {
    std::sort(pairs_.begin() + static_cast<ptrdiff_t>(offsets_[i]),
              pairs_.begin() + static_cast<ptrdiff_t>(offsets_[i + 1]));
  }
  // Reverse CSR: the distinct predicates of the triples in which a node
  // occurs as subject or object — the dirtiness relation of the
  // contextual worklist engine. Built like TripleGraph's in-index: one
  // exact counting pass (two slots per triple), one fill pass, then an
  // in-place per-node sort+unique with left compaction.
  rev_offsets_.assign(n + 1, 0);
  for (const Triple& t : g.triples()) {
    ++rev_offsets_[t.s + 1];
    ++rev_offsets_[t.o + 1];
  }
  for (size_t i = 0; i < n; ++i) rev_offsets_[i + 1] += rev_offsets_[i];
  rev_predicates_.resize(rev_offsets_[n]);
  {
    std::vector<uint64_t> cursor(rev_offsets_.begin(), rev_offsets_.end() - 1);
    for (const Triple& t : g.triples()) {
      rev_predicates_[cursor[t.s]++] = t.p;
      rev_predicates_[cursor[t.o]++] = t.p;
    }
  }
  {
    uint64_t write = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t begin = rev_offsets_[i];
      const uint64_t end = rev_offsets_[i + 1];
      auto first = rev_predicates_.begin() + static_cast<ptrdiff_t>(begin);
      auto last = rev_predicates_.begin() + static_cast<ptrdiff_t>(end);
      std::sort(first, last);
      last = std::unique(first, last);
      const uint64_t len = static_cast<uint64_t>(last - first);
      if (write != begin) {
        std::move(first, last,
                  rev_predicates_.begin() + static_cast<ptrdiff_t>(write));
      }
      rev_offsets_[i] = write;
      write += len;
    }
    rev_offsets_[n] = write;
    rev_predicates_.resize(write);
    rev_predicates_.shrink_to_fit();
  }
}

Partition ContextualRefineFixpoint(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const MediationIndex& mediation,
                                   const std::vector<uint8_t>& predicate_only,
                                   RefinementStats* stats,
                                   const RefinementOptions& options) {
  internal::WorklistConfig config;
  config.mediation = &mediation;
  config.predicate_only = &predicate_only;
  config.threads = options.threads;
  return internal::RunWorklistFixpoint(g, initial, x, config, stats);
}

ContextualHybridInputs BuildContextualHybridInputs(const CombinedGraph& cg) {
  const TripleGraph& g = cg.graph();
  Partition base = TrivialPartition(g);
  std::vector<NodeId> x = UnalignedNonLiterals(cg, base);
  std::vector<uint8_t> predicate_only(g.NumNodes(), 0);
  for (NodeId n : PredicateOnlyUris(g)) predicate_only[n] = 1;
  return ContextualHybridInputs{BlankColors(base, x), std::move(x),
                                std::move(predicate_only),
                                MediationIndex(g)};
}

Partition PredicateAwareHybridPartition(const CombinedGraph& cg,
                                        RefinementStats* stats,
                                        const RefinementOptions& options) {
  ContextualHybridInputs in = BuildContextualHybridInputs(cg);
  return ContextualRefineFixpoint(cg.graph(), std::move(in.blanked), in.x,
                                  in.mediation, in.predicate_only, stats,
                                  options);
}

}  // namespace rdfalign
