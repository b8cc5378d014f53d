// Front-coded dictionary sections (format version 2 of the snapshot,
// delta, and update-fragment files), plus the geometry check of the raw
// version-1 term tables those formats still read.
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
// restart terms are complete in the blob and stay zero-copy; non-restart
// terms are materialized (previous term's head + own suffix) into a side
// arena pinned to the dictionary, so Dictionary::InternPinned remains
// valid for every term and the mmap fast path survives.
//
// This header holds the pieces shared by all three writers and readers:
// the restart interval, the prefix/suffix computation, and the geometry
// validation a loader must run before touching the blob; plus the sorted
// term numbering of a graph that the snapshot and delta writers share.

#ifndef RDFALIGN_STORE_FRONT_CODING_H_
#define RDFALIGN_STORE_FRONT_CODING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Validates the geometry of a front-coded section before any blob byte
/// is interpreted: the suffix offsets span the blob monotonically, every
/// restart has prefix length zero, and every prefix length is bounded by
/// the previous term's decoded length — so the decode loop below never
/// reads outside [prev term]. Returns nullptr on success or a static
/// description of the defect; on success *materialized_bytes is the total
/// decoded size of the non-restart terms (the side-arena budget).
inline const char* CheckFrontCodedGeometry(
    std::span<const uint32_t> prefix_lens,
    std::span<const uint64_t> suffix_offsets, uint64_t blob_size,
    uint64_t* materialized_bytes) {
  const size_t count = prefix_lens.size();
  if (suffix_offsets.size() != count + 1) {
    return "front-coded prefix table does not match the offset table";
  }
  if (suffix_offsets[0] != 0 || suffix_offsets[count] != blob_size) {
    return "term offset table does not span the term blob";
  }
  uint64_t arena = 0;
  uint64_t prev_len = 0;
  for (size_t i = 0; i < count; ++i) {
    if (suffix_offsets[i] > suffix_offsets[i + 1]) {
      return "term offsets not monotonic";
    }
    const uint64_t suffix_len = suffix_offsets[i + 1] - suffix_offsets[i];
    const uint64_t plen = prefix_lens[i];
    if (i % kRestartInterval == 0) {
      if (plen != 0) return "front-coded restart term has a nonzero prefix";
    } else if (plen > prev_len) {
      return "front-coded prefix longer than the previous term";
    }
    prev_len = plen + suffix_len;
    if (plen != 0) arena += prev_len;
  }
  if (materialized_bytes != nullptr) *materialized_bytes = arena;
  return nullptr;
}

/// Validates the geometry of a raw (version-1) term table before any blob
/// byte is interpreted: the offsets span the blob and are monotone, so
/// every term [offsets[i], offsets[i+1]) lies inside it. Returns nullptr on
/// success or a static description of the defect.
inline const char* CheckRawTermGeometry(std::span<const uint64_t> offsets,
                                        uint64_t blob_size) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != blob_size) {
    return "term offset table does not span the term blob";
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) return "term offsets not monotonic";
  }
  return nullptr;
}

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_FRONT_CODING_H_
