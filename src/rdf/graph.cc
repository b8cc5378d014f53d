#include "rdf/graph.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"
#include "util/thread_pool.h"

namespace rdfalign {
uint64_t TripleGraph::LabelKey(TermKind kind, LexId lex) {
  return (static_cast<uint64_t>(kind) << 32) | lex;
}

Result<TripleGraph> TripleGraph::FromParts(std::shared_ptr<Dictionary> dict,
                                           std::vector<NodeLabel> labels,
                                           std::vector<Triple> triples,
                                           bool validate_rdf, size_t threads) {
  TripleGraph g;
  g.dict_ = dict ? std::move(dict) : std::make_shared<Dictionary>();
  g.labels_ = std::move(labels);
  const NodeId n = static_cast<NodeId>(g.labels_.size());
  for (const Triple& t : triples) {
    if (t.s >= n || t.p >= n || t.o >= n) {
      return Status::InvalidArgument("triple references node out of range");
    }
  }
  // Triple's ordering is total over (s, p, o), so the sorted list is the
  // unique sorted permutation for any thread count.
  ParallelSort(triples, threads);
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  g.BuildIndexes(std::move(triples));
  if (validate_rdf) {
    RDFALIGN_RETURN_IF_ERROR(g.ValidateRdf());
  }
  return g;
}

TripleGraph TripleGraph::FromIndexedParts(
    std::shared_ptr<Dictionary> dict, std::vector<NodeLabel> labels,
    SharedArray<Triple> triples, SharedArray<uint64_t> out_offsets,
    SharedArray<PredicateObject> out_pairs, SharedArray<uint64_t> in_offsets,
    SharedArray<NodeId> in_subjects) {
  TripleGraph g;
  g.dict_ = dict ? std::move(dict) : std::make_shared<Dictionary>();
  g.labels_ = std::move(labels);
  g.triples_ = std::move(triples);
  g.out_offsets_ = std::move(out_offsets);
  g.out_pairs_ = std::move(out_pairs);
  g.in_offsets_ = std::move(in_offsets);
  g.in_subjects_ = std::move(in_subjects);
  return g;
}

void TripleGraph::BuildCsrArrays(std::span<const Triple> triples,
                                 size_t num_nodes,
                                 std::vector<uint64_t>* out_offsets_p,
                                 std::vector<PredicateObject>* out_pairs_p,
                                 std::vector<uint64_t>* in_offsets_p,
                                 std::vector<NodeId>* in_subjects_p) {
  const size_t n = num_nodes;
  std::vector<uint64_t>& out_offsets = *out_offsets_p;
  out_offsets.assign(n + 1, 0);
  for (const Triple& t : triples) {
    ++out_offsets[t.s + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    out_offsets[i + 1] += out_offsets[i];
  }
  std::vector<PredicateObject>& out_pairs = *out_pairs_p;
  out_pairs.resize(triples.size());
  // `triples` is sorted by (s, p, o), so a single pass fills each node's
  // slice in (p, o) order.
  {
    std::vector<uint64_t> cursor(out_offsets.begin(), out_offsets.end() - 1);
    for (const Triple& t : triples) {
      out_pairs[cursor[t.s]++] = PredicateObject{t.p, t.o};
    }
  }
  // Reverse CSR: in(n) = subjects of the triples in which n occurs as the
  // predicate or the object. The buffer is sized exactly by one counting
  // pass (two slots per triple), filled, then deduplicated per node with an
  // in-place left compaction — no push_back growth, one allocation.
  std::vector<uint64_t>& in_offsets = *in_offsets_p;
  in_offsets.assign(n + 1, 0);
  for (const Triple& t : triples) {
    ++in_offsets[t.p + 1];
    ++in_offsets[t.o + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    in_offsets[i + 1] += in_offsets[i];
  }
  std::vector<NodeId>& in_subjects = *in_subjects_p;
  in_subjects.assign(in_offsets[n], 0);
  {
    std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
    for (const Triple& t : triples) {
      in_subjects[cursor[t.p]++] = t.s;
      in_subjects[cursor[t.o]++] = t.s;
    }
  }
  {
    // A node reached through several roles (or several predicates) appears
    // once: sort each slice, drop duplicates, and slide the survivors left.
    uint64_t write = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t begin = in_offsets[i];
      const uint64_t end = in_offsets[i + 1];
      auto first = in_subjects.begin() + static_cast<ptrdiff_t>(begin);
      auto last = in_subjects.begin() + static_cast<ptrdiff_t>(end);
      std::sort(first, last);
      last = std::unique(first, last);
      const uint64_t len = static_cast<uint64_t>(last - first);
      if (write != begin) {
        std::move(first, last,
                  in_subjects.begin() + static_cast<ptrdiff_t>(write));
      }
      in_offsets[i] = write;
      write += len;
    }
    in_offsets[n] = write;
    in_subjects.resize(write);
    in_subjects.shrink_to_fit();  // release the pre-dedup slack
  }
}

void TripleGraph::BuildIndexes(std::vector<Triple> triples) {
  std::vector<uint64_t> out_offsets;
  std::vector<PredicateObject> out_pairs;
  std::vector<uint64_t> in_offsets;
  std::vector<NodeId> in_subjects;
  BuildCsrArrays(triples, labels_.size(), &out_offsets, &out_pairs,
                 &in_offsets, &in_subjects);
  triples_ = SharedArray<Triple>(std::move(triples));
  out_offsets_ = SharedArray<uint64_t>(std::move(out_offsets));
  out_pairs_ = SharedArray<PredicateObject>(std::move(out_pairs));
  in_offsets_ = SharedArray<uint64_t>(std::move(in_offsets));
  in_subjects_ = SharedArray<NodeId>(std::move(in_subjects));
}

Status TripleGraph::ValidateRdf() const {
  for (const Triple& t : triples_) {
    if (IsLiteral(t.s)) {
      return Status::InvalidArgument(
          "literal node used as subject: \"" + std::string(Lexical(t.s)) +
          "\"");
    }
    if (IsLiteral(t.p)) {
      return Status::InvalidArgument(
          "literal node used as predicate: \"" + std::string(Lexical(t.p)) +
          "\"");
    }
    if (IsBlank(t.p)) {
      return Status::InvalidArgument("blank node used as predicate");
    }
  }
  return Status::OK();
}

NodeId TripleGraph::FindNode(TermKind kind, std::string_view lexical) const {
  const LexId lex = dict_->Find(lexical);
  if (lex == kInvalidLex) return kInvalidNode;
  auto key_of = [this](NodeId i) {
    return LabelKey(labels_[i].kind, labels_[i].lex);
  };
  LabelIndex& index = *label_index_;
  std::call_once(index.built, [&] {
    // Ascending insertion keeps the first node of a repeated label; for
    // unique-label graphs there is no repeat, and in a combined graph the
    // source-side node wins.
    index.nodes.Reserve(labels_.size(),
                        [&](NodeId i) { return Mix64(key_of(i)); });
    for (NodeId i = 0; i < labels_.size(); ++i) {
      const uint64_t key = key_of(i);
      index.nodes.FindOrInsert(
          Mix64(key), [&](NodeId j) { return key_of(j) == key; },
          [i] { return i; });
    }
  });
  const uint64_t key = LabelKey(kind, lex);
  return index.nodes.Find(Mix64(key),
                          [&](NodeId j) { return key_of(j) == key; });
}

NodeId TripleGraph::FindUri(std::string_view uri) const {
  return FindNode(TermKind::kUri, uri);
}

NodeId TripleGraph::FindLiteral(std::string_view value) const {
  return FindNode(TermKind::kLiteral, value);
}

NodeId TripleGraph::FindBlank(std::string_view local_name) const {
  return FindNode(TermKind::kBlank, local_name);
}

size_t TripleGraph::CountOfKind(TermKind kind) const {
  size_t count = 0;
  for (const NodeLabel& l : labels_) {
    if (l.kind == kind) ++count;
  }
  return count;
}

std::vector<NodeId> TripleGraph::NodesOfKind(TermKind kind) const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < labels_.size(); ++i) {
    if (labels_[i].kind == kind) out.push_back(i);
  }
  return out;
}

namespace {

template <typename T>
bool SpansEqual(std::span<const T> x, std::span<const T> y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

}  // namespace

const char* GraphsBitDiffer(const TripleGraph& a, const TripleGraph& b) {
  if (a.NumNodes() != b.NumNodes()) return "node counts";
  for (NodeId i = 0; i < a.NumNodes(); ++i) {
    if (a.KindOf(i) != b.KindOf(i) || a.Lexical(i) != b.Lexical(i)) {
      return "labels";
    }
  }
  if (!SpansEqual(a.triples(), b.triples())) return "triples";
  if (!SpansEqual(a.OutOffsets(), b.OutOffsets())) return "out_offsets";
  if (!SpansEqual(a.OutPairs(), b.OutPairs())) return "out_pairs";
  if (!SpansEqual(a.InOffsets(), b.InOffsets())) return "in_offsets";
  if (!SpansEqual(a.InSubjects(), b.InSubjects())) return "in_subjects";
  return nullptr;
}

bool LabeledGraphsEqual(const TripleGraph& a, const TripleGraph& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (NodeId i = 0; i < a.NumNodes(); ++i) {
    if (a.KindOf(i) != b.KindOf(i) || a.Lexical(i) != b.Lexical(i)) {
      return false;
    }
  }
  std::span<const Triple> ta = a.triples();
  std::span<const Triple> tb = b.triples();
  return std::equal(ta.begin(), ta.end(), tb.begin(), tb.end());
}

GraphBuilder::GraphBuilder(std::shared_ptr<Dictionary> dict)
    : dict_(dict ? std::move(dict) : std::make_shared<Dictionary>()) {}

NodeId GraphBuilder::AddUri(std::string_view uri) {
  LexId lex = dict_->Intern(uri);
  uint64_t key = TripleGraph::LabelKey(TermKind::kUri, lex);
  auto [it, inserted] =
      node_by_label_.emplace(key, static_cast<NodeId>(labels_.size()));
  if (inserted) {
    labels_.push_back(NodeLabel{TermKind::kUri, lex});
  }
  return it->second;
}

NodeId GraphBuilder::AddLiteral(std::string_view value) {
  LexId lex = dict_->Intern(value);
  uint64_t key = TripleGraph::LabelKey(TermKind::kLiteral, lex);
  auto [it, inserted] =
      node_by_label_.emplace(key, static_cast<NodeId>(labels_.size()));
  if (inserted) {
    labels_.push_back(NodeLabel{TermKind::kLiteral, lex});
  }
  return it->second;
}

NodeId GraphBuilder::AddBlank(std::string_view local_name) {
  std::string anon;
  if (local_name.empty()) {
    anon = "__anon" + std::to_string(anon_counter_++);
    local_name = anon;
  }
  LexId lex = dict_->Intern(local_name);
  uint64_t key = TripleGraph::LabelKey(TermKind::kBlank, lex);
  auto [it, inserted] =
      node_by_label_.emplace(key, static_cast<NodeId>(labels_.size()));
  if (inserted) {
    labels_.push_back(NodeLabel{TermKind::kBlank, lex});
  }
  return it->second;
}

void GraphBuilder::AddTriple(NodeId s, NodeId p, NodeId o) {
  triples_.push_back(Triple{s, p, o});
}

void GraphBuilder::AddUriTriple(std::string_view s, std::string_view p,
                                std::string_view o) {
  NodeId sn = AddUri(s);
  NodeId pn = AddUri(p);
  NodeId on = AddUri(o);
  AddTriple(sn, pn, on);
}

void GraphBuilder::AddLiteralTriple(std::string_view s, std::string_view p,
                                    std::string_view literal) {
  NodeId sn = AddUri(s);
  NodeId pn = AddUri(p);
  NodeId on = AddLiteral(literal);
  AddTriple(sn, pn, on);
}

Result<TripleGraph> GraphBuilder::Build(bool validate_rdf, size_t threads) {
  return TripleGraph::FromParts(std::move(dict_), std::move(labels_),
                                std::move(triples_), validate_rdf, threads);
}

}  // namespace rdfalign
