// Front-coded dictionary sections (format version 2 of the snapshot,
// delta, and update-fragment files), plus the raw version-1 term tables
// those formats still read.
//
// The terms of a dictionary section are sorted lexicographically by their
// raw bytes; consecutive terms then share long prefixes (IRIs share
// namespaces by construction), and each term is stored as
//
//   prefix_lens[i]  — bytes shared with term i-1 (u32)
//   suffix          — the remaining tail, concatenated into the blob
//
// with a *restart point* every kRestartInterval terms: at a restart the
// prefix length is forced to zero, so the term is stored whole and any
// single term decodes by scanning at most one block — O(block), not O(i).
// The suffix offset table keeps the familiar (t + 1) x u64 shape of the
// raw encoding, but its entries now index the *suffix* blob.
//
// The decode contract (see docs/store.md "Front-coded dictionary"):
// restart terms are complete in the blob and stay zero-copy; terms with a
// shared prefix are materialized (previous term's head + own suffix) into
// a side arena pinned to the dictionary, so Dictionary::InternPinned
// remains valid for every term and the mmap fast path survives.
//
// This header holds the pieces shared by all three writers and readers:
// the restart interval and the prefix/suffix computation on the write
// side; on the read side the one term-table reader (geometry, decode and
// order, raw or front-coded) and the one node-column check; plus the
// sorted term numbering of a graph that the snapshot and delta writers
// share. A loader runs both checks, and every other structural check of
// its file, before it interns a term or pins a buffer into a dictionary.

#ifndef RDFALIGN_STORE_FRONT_CODING_H_
#define RDFALIGN_STORE_FRONT_CODING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "rdf/graph.h"

namespace rdfalign::store {

/// TermBinding::dense_of of a dictionary term the graph does not use.
inline constexpr uint32_t kInvalidDense = 0xffffffffu;

/// Dense numbering of the dictionary terms a graph's labels reference, in
/// ascending order of their bytes (the front-coding order). A shared
/// dictionary may hold terms of other graphs; those get no number. The
/// order is canonical in the graph's content: the delta writer and the
/// patch replayer resolve term references identically no matter how
/// either side's dictionary was populated, so a delta applies to any base
/// holding the right content — including one materialized by an earlier
/// patch (chained `rdfalign diff`/`patch` over independently built
/// snapshots).
struct TermBinding {
  std::vector<LexId> term_ids;     ///< dense index -> dictionary id
  std::vector<uint32_t> dense_of;  ///< dictionary id -> dense index
};

inline TermBinding BindTerms(const TripleGraph& g) {
  const Dictionary& dict = g.dict();
  std::vector<uint8_t> used(dict.size(), 0);
  for (const NodeLabel& l : g.labels()) {
    used[l.lex] = 1;
  }
  TermBinding b;
  for (LexId id = 0; id < used.size(); ++id) {
    if (used[id]) b.term_ids.push_back(id);
  }
  // Distinct ids hold distinct strings (the dictionary interns uniquely),
  // so the order is total and deterministic.
  std::sort(b.term_ids.begin(), b.term_ids.end(),
            [&dict](LexId a, LexId c) { return dict.Get(a) < dict.Get(c); });
  b.dense_of.assign(dict.size(), kInvalidDense);
  for (size_t j = 0; j < b.term_ids.size(); ++j) {
    b.dense_of[b.term_ids[j]] = static_cast<uint32_t>(j);
  }
  return b;
}

/// Terms between forced whole-term restart points. Small enough that the
/// worst-case single-term decode touches a handful of entries, large
/// enough that the per-block whole term amortizes away.
inline constexpr size_t kRestartInterval = 16;

/// The computed layout of one front-coded term list: per-term shared
/// prefix lengths, offsets of the suffix tails, and the tails themselves
/// as views into the terms (writers stream them; nothing is copied).
struct FrontCodedLayout {
  std::vector<uint32_t> prefix_lens;      ///< count entries
  std::vector<uint64_t> suffix_offsets;   ///< count + 1 entries
  std::vector<std::string_view> suffixes;  ///< count entries
};

/// Computes the front-coded layout of `count` terms. `get(i)` must return
/// the i-th term, a view that outlives the layout; the terms must be
/// sorted ascending (strictly — distinct interned ids hold distinct
/// strings).
template <typename GetTerm>
FrontCodedLayout FrontCodeTerms(size_t count, GetTerm&& get) {
  FrontCodedLayout layout;
  layout.prefix_lens.resize(count);
  layout.suffix_offsets.assign(count + 1, 0);
  layout.suffixes.resize(count);
  std::string_view prev;
  for (size_t i = 0; i < count; ++i) {
    const std::string_view term = get(i);
    size_t plen = 0;
    if (i % kRestartInterval != 0) {
      const size_t limit = prev.size() < term.size() ? prev.size()
                                                     : term.size();
      while (plen < limit && prev[plen] == term[plen]) ++plen;
      // The on-disk field is u32; a >4 GiB shared prefix is truncated to
      // a shorter (still correct) one rather than wrapped.
      if (plen > 0xffffffffull) plen = 0xffffffffull;
    }
    layout.prefix_lens[i] = static_cast<uint32_t>(plen);
    layout.suffixes[i] = term.substr(plen);
    layout.suffix_offsets[i + 1] =
        layout.suffix_offsets[i] + layout.suffixes[i].size();
    prev = term;
  }
  return layout;
}

/// A dictionary section's term table as DecodeTermTable proved it. A
/// version-1 term and a front-coded term with no shared prefix (every
/// restart term) is stored whole in `blob`; any other term is
/// materialized in `arena`, in file order.
struct TermTable {
  std::span<const uint64_t> offsets;
  std::span<const uint32_t> prefix_lens;  ///< empty for a raw table
  std::span<const char> blob;
  std::shared_ptr<const char[]> arena;    ///< null when no term has a prefix
};

/// Returns the terms of a TermTable in file order, one per Next() call, as
/// views into its blob or its arena: a loader that interns the views pins
/// both.
class TermReader {
 public:
  explicit TermReader(const TermTable& table)
      : table_(table), next_(table.arena.get()) {}

  std::string_view Next() {
    const std::span<const uint64_t> offsets = table_.offsets;
    const std::string_view suffix(table_.blob.data() + offsets[i_],
                                  offsets[i_ + 1] - offsets[i_]);
    const uint32_t plen =
        table_.prefix_lens.empty() ? 0 : table_.prefix_lens[i_];
    ++i_;
    if (plen == 0) return suffix;
    const std::string_view term(next_, plen + suffix.size());
    next_ += term.size();
    return term;
  }

 private:
  const TermTable& table_;
  size_t i_ = 0;                ///< the term Next() returns
  const char* next_ = nullptr;  ///< where it starts when materialized
};

/// Reads the term table of a dictionary section: `offsets` and `blob`,
/// plus `prefix_lens` when `front_coded` (ignored otherwise). Validates
/// the geometry before any blob byte is interpreted, materializes every
/// front-coded term stored with a shared prefix into one arena allocated
/// up front at its exact size, and proves a front-coded table strictly
/// ascending. Returns nullptr and fills *out on success, or a static
/// description of the defect.
inline const char* DecodeTermTable(std::span<const uint64_t> offsets,
                                   std::span<const uint32_t> prefix_lens,
                                   bool front_coded,
                                   std::span<const char> blob,
                                   TermTable* out) {
  // Geometry: the offsets span the blob monotonically, so every suffix
  // lies inside it; front-coded, every restart has prefix length zero and
  // every prefix length is bounded by the previous term's decoded length,
  // so the decode loop below never reads outside its inputs.
  if (front_coded && offsets.size() != prefix_lens.size() + 1) {
    return "front-coded prefix table does not match the offset table";
  }
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != blob.size()) {
    return "term offset table does not span the term blob";
  }
  const size_t count = offsets.size() - 1;
  uint64_t arena_bytes = 0;  // decoded size of the terms with a prefix
  uint64_t prev_len = 0;
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) return "term offsets not monotonic";
    if (!front_coded) continue;
    const uint64_t plen = prefix_lens[i];
    if (i % kRestartInterval == 0) {
      if (plen != 0) return "front-coded restart term has a nonzero prefix";
    } else if (plen > prev_len) {
      return "front-coded prefix longer than the previous term";
    }
    prev_len = plen + (offsets[i + 1] - offsets[i]);
    if (plen != 0) arena_bytes += prev_len;
  }
  // Decode: a term with a shared prefix is its predecessor's head plus its
  // own suffix, written where TermReader will find it. The predecessor is
  // always contiguous (a blob view or an earlier arena entry), so its head
  // is one copy.
  std::shared_ptr<char[]> arena;
  if (arena_bytes != 0) {
    arena = std::make_shared_for_overwrite<char[]>(arena_bytes);
  }
  char* write = arena.get();
  if (!front_coded) prefix_lens = {};
  *out = TermTable{offsets, prefix_lens, blob, std::move(arena)};
  TermReader reader(*out);
  std::string_view prev;
  for (size_t i = 0; i < count; ++i) {
    if (const uint32_t plen = front_coded ? prefix_lens[i] : 0; plen != 0) {
      const uint64_t suffix_len = offsets[i + 1] - offsets[i];
      std::memcpy(write, prev.data(), plen);
      std::memcpy(write + plen, blob.data() + offsets[i], suffix_len);
      write += plen + suffix_len;
    }
    const std::string_view term = reader.Next();
    if (front_coded && i > 0 && !(prev < term)) {
      return "front-coded terms not strictly ascending";
    }
    prev = term;
  }
  return nullptr;
}

/// Checks the node columns that index a term table of `num_terms` terms:
/// every kind is a TermKind and every term index is in the table. Returns
/// nullptr on success or a static description of the defect.
inline const char* CheckNodeColumns(std::span<const uint8_t> kinds,
                                    std::span<const uint32_t> lex,
                                    uint64_t num_terms) {
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] > static_cast<uint8_t>(TermKind::kBlank)) {
      return "node kind out of range";
    }
    if (lex[i] >= num_terms) return "node label references a missing term";
  }
  return nullptr;
}

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_FRONT_CODING_H_
