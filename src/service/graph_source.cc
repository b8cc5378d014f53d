#include "service/graph_source.h"

#include <string_view>
#include <utility>
#include <vector>

#include "parser/ntriples_parser.h"
#include "parser/turtle_parser.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign::service {

uint64_t LoadedGraphBytes(const TripleGraph& g) {
  const Dictionary& dict = g.dict();
  uint64_t term_bytes = 0;
  for (LexId id = 0; id < dict.size(); ++id) {
    term_bytes += dict.Get(id).size();
  }
  // Payload arrays are exact; the dictionary's per-term columns and hash
  // index are charged at a fixed per-term overhead so the accounting stays
  // a pure function of the graph's content. Index slots run at load factor
  // 3/8..3/4, so two four-byte slots per term is the midpoint. No node
  // lookup map is charged: it is built only on a label lookup, which no
  // service path performs.
  constexpr uint64_t kPerTermOverhead =
      sizeof(std::string_view) + sizeof(uint64_t) + 2 * sizeof(LexId);
  return g.labels().size() * sizeof(NodeLabel) +
         g.triples().size() * sizeof(Triple) +
         g.OutOffsets().size() * sizeof(uint64_t) +
         g.OutPairs().size() * sizeof(PredicateObject) +
         g.InOffsets().size() * sizeof(uint64_t) +
         g.InSubjects().size() * sizeof(NodeId) + term_bytes +
         dict.size() * kPerTermOverhead;
}

Result<LoadedGraphRef> LoadGraphFile(const std::string& path,
                                     const CommonOptions& common,
                                     bool need_fingerprint) {
  const size_t workers = ResolveThreads(common.threads);
  auto loaded = std::make_shared<LoadedGraph>();
  if (store::LooksLikeSnapshot(path)) {
    loaded->kind = common.use_mmap ? "snapshot(mmap)" : "snapshot";
    store::SnapshotLoadOptions options;
    options.use_mmap = common.use_mmap;
    options.verify_checksums = common.verify_checksums;
    RDFALIGN_ASSIGN_OR_RETURN(loaded->graph,
                              store::LoadSnapshot(path, nullptr, options));
  } else if (EndsWith(path, ".ttl")) {
    loaded->kind = "turtle";
    RDFALIGN_ASSIGN_OR_RETURN(loaded->graph,
                              ParseTurtleFile(path, nullptr, workers));
  } else {
    loaded->kind = "ntriples";
    RDFALIGN_ASSIGN_OR_RETURN(
        loaded->graph, ParseNTriplesFile(path, nullptr, nullptr, workers));
  }
  loaded->resident_bytes = LoadedGraphBytes(loaded->graph);
  if (need_fingerprint) {
    loaded->fingerprint = store::GraphFingerprint(loaded->graph);
    loaded->has_fingerprint = true;
  }
  return LoadedGraphRef(std::move(loaded));
}

Result<AcquiredGraph> DirectGraphSource::Acquire(const std::string& path,
                                                 const CommonOptions& common,
                                                 bool need_fingerprint) {
  WallTimer timer;
  AcquiredGraph out;
  RDFALIGN_ASSIGN_OR_RETURN(out.loaded,
                            LoadGraphFile(path, common, need_fingerprint));
  out.cache_hit = false;
  out.acquire_ms = timer.ElapsedMillis();
  return out;
}

TripleGraph RebindGraph(const LoadedGraphRef& src,
                        const std::shared_ptr<Dictionary>& dict) {
  const TripleGraph& g = src->graph;
  const Dictionary& src_dict = g.dict();
  // `src` is the arena: it owns the graph, which owns its dictionary,
  // which owns (or pins) every term's bytes — one pin covers them all.
  dict->PinArena(src);

  // Intern in ascending source-id order. A freshly loaded graph's
  // dictionary holds exactly its referenced terms in load order, so this
  // reproduces the LexId numbering of loading straight into `dict`. Each
  // term costs one probe with the hash its source dictionary cached when
  // the graph was loaded; no term is hashed again.
  std::vector<uint8_t> used(src_dict.size(), 0);
  size_t num_used = 0;
  for (const NodeLabel& l : g.labels()) {
    num_used += used[l.lex] == 0;
    used[l.lex] = 1;
  }
  dict->Reserve(dict->size() + num_used);
  std::vector<LexId> remap(src_dict.size(), kInvalidLex);
  for (LexId id = 0; id < src_dict.size(); ++id) {
    if (used[id]) {
      remap[id] = dict->InternPinned(src_dict.Get(id), src_dict.HashOf(id));
    }
  }

  std::vector<NodeLabel> labels(g.NumNodes());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = NodeLabel{g.labels()[i].kind, remap[g.labels()[i].lex]};
  }

  // Adopt every array as a view pinned by the LoadedGraph: content
  // outlives any cache eviction for as long as the rebound graph does.
  return TripleGraph::FromIndexedParts(
      dict, std::move(labels),
      SharedArray<Triple>(src, g.triples().data(), g.triples().size()),
      SharedArray<uint64_t>(src, g.OutOffsets().data(), g.OutOffsets().size()),
      SharedArray<PredicateObject>(src, g.OutPairs().data(),
                                   g.OutPairs().size()),
      SharedArray<uint64_t>(src, g.InOffsets().data(), g.InOffsets().size()),
      SharedArray<NodeId>(src, g.InSubjects().data(), g.InSubjects().size()));
}

Result<TripleGraph> AcquireRebound(GraphSource* source,
                                   const std::string& path,
                                   const CommonOptions& common,
                                   const std::shared_ptr<Dictionary>& dict,
                                   uint64_t* hits, uint64_t* misses,
                                   std::string* kind) {
  RDFALIGN_ASSIGN_OR_RETURN(AcquiredGraph g,
                            source->Acquire(path, common, false));
  ++*(g.cache_hit ? hits : misses);
  if (kind != nullptr) *kind = g.loaded->kind;
  return RebindGraph(g.loaded, dict);
}

}  // namespace rdfalign::service
