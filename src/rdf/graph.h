// TripleGraph: the node-identifier graph model of §2.1, plus GraphBuilder.
//
// A triple graph G = (N_G, E_G, ℓ_G) has a finite node set (dense ids),
// edges that are node triples, and a labeling function into
// I = URIs ∪ Literals ∪ {⊥b}. An *RDF graph* is a triple graph where no two
// nodes share a URI or literal label, literals occur only in object
// position, and predicates are never blank; GraphBuilder enforces the
// uniqueness by construction and Build() validates the positional rules.
//
// Storage: the triple list and the CSR indexes are SharedArrays — normally
// owned vectors, but the snapshot store (src/store) can hand them in as
// zero-copy views into a pinned load buffer or file mapping.
//
// Lookup by label (FindUri / FindLiteral / FindBlank) goes through a flat
// node-by-label table that is built on the first lookup, not when the
// graph is assembled: loading, rebinding and merging never pay for it, and
// no alignment path asks for it.

#ifndef RDFALIGN_RDF_GRAPH_H_
#define RDFALIGN_RDF_GRAPH_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/flat_id_table.h"
#include "util/result.h"
#include "util/shared_array.h"
#include "util/status.h"

namespace rdfalign {

static_assert(FlatIdTable::kEmpty == kInvalidNode,
              "a FlatIdTable miss must read as kInvalidNode");

/// An immutable triple graph with a CSR index of outbound neighborhoods.
class TripleGraph {
 public:
  TripleGraph()
      : dict_(std::make_shared<Dictionary>()),
        label_index_(std::make_shared<LabelIndex>()) {}

  /// Builds a graph from parts. Does NOT deduplicate nodes (callers such as
  /// the disjoint-union constructor rely on that). Sorts and deduplicates
  /// edges and builds the out-index. When `validate_rdf` is set, checks the
  /// RDF positional constraints (literals only as objects, predicates never
  /// blank or literal). `threads` > 1 sorts the edges on the shared pool
  /// (ParallelSort); the CSR indexes are built serially. The result is
  /// bit-identical to threads=1 (see docs/parallelism.md).
  static Result<TripleGraph> FromParts(std::shared_ptr<Dictionary> dict,
                                       std::vector<NodeLabel> labels,
                                       std::vector<Triple> triples,
                                       bool validate_rdf, size_t threads = 1);

  /// Assembles a graph from *pre-indexed* parts: the triple list must be
  /// sorted and deduplicated and the two CSR indexes must be exactly what
  /// BuildIndexes() would produce for it. No sorting, index construction,
  /// or validation happens. This is the snapshot store's zero-parse load
  /// path (and the rebind and merge path); the loader is responsible
  /// for having validated the arrays (see store/snapshot.cc). Passing
  /// inconsistent arrays is undefined behavior.
  static TripleGraph FromIndexedParts(std::shared_ptr<Dictionary> dict,
                                      std::vector<NodeLabel> labels,
                                      SharedArray<Triple> triples,
                                      SharedArray<uint64_t> out_offsets,
                                      SharedArray<PredicateObject> out_pairs,
                                      SharedArray<uint64_t> in_offsets,
                                      SharedArray<NodeId> in_subjects);

  /// Builds both CSR indexes for an already sorted and deduplicated triple
  /// list over `num_nodes` nodes, into the output vectors — exactly the
  /// arrays BuildIndexes() would produce, without sorting the triples.
  /// This is the single CSR constructor shared by graph building and the
  /// delta store's patch replay (src/store/delta.cc), so a graph spliced
  /// from pre-sorted runs is bit-identical to one built from scratch.
  /// Triple node ids must be < num_nodes. The build is one serial counting
  /// pass per index: a chunked build has to sort every reverse slice it
  /// scatters out of order, and measured slower at every lane count
  /// (docs/parallelism.md).
  static void BuildCsrArrays(std::span<const Triple> sorted_triples,
                             size_t num_nodes,
                             std::vector<uint64_t>* out_offsets,
                             std::vector<PredicateObject>* out_pairs,
                             std::vector<uint64_t>* in_offsets,
                             std::vector<NodeId>* in_subjects);

  size_t NumNodes() const { return labels_.size(); }
  size_t NumEdges() const { return triples_.size(); }

  TermKind KindOf(NodeId n) const { return labels_[n].kind; }
  bool IsUri(NodeId n) const { return KindOf(n) == TermKind::kUri; }
  bool IsLiteral(NodeId n) const { return KindOf(n) == TermKind::kLiteral; }
  bool IsBlank(NodeId n) const { return KindOf(n) == TermKind::kBlank; }

  const NodeLabel& LabelOf(NodeId n) const { return labels_[n]; }

  /// Lexical form: the URI, the literal value, or the blank's local name.
  std::string_view Lexical(NodeId n) const {
    return dict_->Get(labels_[n].lex);
  }
  LexId LexicalId(NodeId n) const { return labels_[n].lex; }

  /// Outbound neighborhood out(n), sorted by (p, o).
  std::span<const PredicateObject> Out(NodeId n) const {
    return {out_pairs_.data() + out_offsets_[n],
            out_offsets_[n + 1] - out_offsets_[n]};
  }
  size_t OutDegree(NodeId n) const {
    return out_offsets_[n + 1] - out_offsets_[n];
  }

  /// Inbound neighborhood in(n): the distinct subjects s having a triple
  /// (s, p, o) in which n occurs as the predicate or as the object,
  /// ascending. This is the split-propagation index of the incremental
  /// refinement engine: when n's color changes, exactly the nodes in In(n)
  /// can observe the change through their signatures.
  std::span<const NodeId> In(NodeId n) const {
    return {in_subjects_.data() + in_offsets_[n],
            in_offsets_[n + 1] - in_offsets_[n]};
  }
  size_t InDegree(NodeId n) const {
    return in_offsets_[n + 1] - in_offsets_[n];
  }

  std::span<const Triple> triples() const { return triples_.span(); }
  const std::vector<NodeLabel>& labels() const { return labels_; }

  // Bulk access to the raw CSR arrays (the snapshot writer serializes these
  // verbatim; see docs/store.md for their on-disk layout).
  std::span<const uint64_t> OutOffsets() const { return out_offsets_.span(); }
  std::span<const PredicateObject> OutPairs() const {
    return out_pairs_.span();
  }
  std::span<const uint64_t> InOffsets() const { return in_offsets_.span(); }
  std::span<const NodeId> InSubjects() const { return in_subjects_.span(); }

  const Dictionary& dict() const { return *dict_; }
  const std::shared_ptr<Dictionary>& dict_ptr() const { return dict_; }

  /// Node lookup by label; kInvalidNode when absent. Unique-label graphs
  /// (built via GraphBuilder) have at most one match; otherwise the lowest
  /// node id wins (for a combined graph, the source-side node). The first
  /// call builds the lookup table; concurrent const callers are safe.
  NodeId FindUri(std::string_view uri) const;
  NodeId FindLiteral(std::string_view value) const;
  /// Blank lookup is by *local* name, a per-graph convenience.
  NodeId FindBlank(std::string_view local_name) const;

  /// Counts nodes of each kind.
  size_t CountOfKind(TermKind kind) const;

  /// All node ids of a kind, ascending.
  std::vector<NodeId> NodesOfKind(TermKind kind) const;

 private:
  friend class GraphBuilder;

  std::shared_ptr<Dictionary> dict_;
  std::vector<NodeLabel> labels_;
  SharedArray<Triple> triples_;  // sorted, deduplicated
  // CSR out-neighborhood index.
  SharedArray<uint64_t> out_offsets_;       // size NumNodes()+1
  SharedArray<PredicateObject> out_pairs_;  // size NumEdges()
  // Reverse CSR in-neighborhood index (subjects per predicate/object node,
  // deduplicated).
  SharedArray<uint64_t> in_offsets_;  // size NumNodes()+1
  SharedArray<NodeId> in_subjects_;   // size <= 2 * NumEdges()
  // Label -> lowest node id, built by the first Find* call. Held by
  // shared_ptr so the graph stays movable (copies share it; their labels
  // are equal).
  struct LabelIndex {
    std::once_flag built;
    FlatIdTable nodes;
  };
  std::shared_ptr<LabelIndex> label_index_;

  void BuildIndexes(std::vector<Triple> triples);
  NodeId FindNode(TermKind kind, std::string_view lexical) const;
  Status ValidateRdf() const;
  static uint64_t LabelKey(TermKind kind, LexId lex);
};

/// Structural equality of two graphs by *lexical* labels: same node count,
/// node i of `a` and node i of `b` carry the same kind and lexical form
/// (for blanks, the same local name), and the same triple list. Works
/// across distinct dictionaries — the snapshot round-trip tests and the
/// CLI use it to compare a reloaded graph against the original.
bool LabeledGraphsEqual(const TripleGraph& a, const TripleGraph& b);

/// Bit-level storage equality: labels as in LabeledGraphsEqual, plus the
/// triple list and all four CSR index arrays compared byte for byte — the
/// delta store's patch-replay acceptance invariant, shared by the tests
/// and the delta_bench gate so it cannot drift. Returns nullptr when
/// identical, else the name of the first differing component ("labels",
/// "triples", "out_offsets", ...).
const char* GraphsBitDiffer(const TripleGraph& a, const TripleGraph& b);

/// Incremental construction of an RDF graph with label deduplication:
/// adding the same URI or literal twice returns the same node.
class GraphBuilder {
 public:
  /// Starts a builder; when `dict` is null a fresh dictionary is created.
  /// Two versions that will be aligned should share one dictionary.
  explicit GraphBuilder(std::shared_ptr<Dictionary> dict = nullptr);

  /// Returns the node labeled with this URI, creating it on first use.
  NodeId AddUri(std::string_view uri);

  /// Returns the node holding this literal value, creating it on first use.
  NodeId AddLiteral(std::string_view value);

  /// Returns the blank node with this local name, creating it on first use.
  /// An empty name always creates a fresh anonymous blank node.
  NodeId AddBlank(std::string_view local_name = "");

  /// Adds the triple (s, p, o); ids must have been returned by this builder.
  void AddTriple(NodeId s, NodeId p, NodeId o);

  /// Convenience: interns all three terms as URIs and adds the triple.
  void AddUriTriple(std::string_view s, std::string_view p,
                    std::string_view o);

  /// Convenience: subject/predicate URIs with a literal object.
  void AddLiteralTriple(std::string_view s, std::string_view p,
                        std::string_view literal);

  size_t NumNodes() const { return labels_.size(); }
  size_t NumTriples() const { return triples_.size(); }

  /// Finalizes into an immutable TripleGraph. `validate_rdf` rejects graphs
  /// violating RDF positional constraints. The builder is consumed.
  /// `threads` parallelizes the edge sort (bit-identical to the serial
  /// result).
  Result<TripleGraph> Build(bool validate_rdf = true, size_t threads = 1);

 private:
  std::shared_ptr<Dictionary> dict_;
  std::vector<NodeLabel> labels_;
  std::vector<Triple> triples_;
  std::unordered_map<uint64_t, NodeId> node_by_label_;
  uint64_t anon_counter_ = 0;
};

}  // namespace rdfalign

#endif  // RDFALIGN_RDF_GRAPH_H_
