// String interning: lexical forms -> dense LexId.
//
// A Dictionary is shared between the two versions being aligned so that
// label equality is an integer comparison — the trivial alignment (§3.1)
// and the initial bisimulation coloring both reduce to comparing LexIds.
//
// Two storage modes coexist per entry: Intern() copies the string into the
// dictionary, while InternPinned() records a view into an externally owned
// buffer registered with PinArena() (the snapshot store's zero-copy load
// path — term bytes stay in the load buffer / file mapping and are never
// copied).
//
// The index is a flat open-addressing table of LexIds (util/flat_id_table.h)
// beside a per-id cache of each term's 64-bit hash. Probes compare cached
// hashes before bytes, growth rehashes from the cache without touching a
// string, and HashOf() lets a caller re-intern a term into another
// dictionary without hashing it again (service/graph_source.cc). The hash
// lives only in memory; nothing persists it.

#ifndef RDFALIGN_RDF_DICTIONARY_H_
#define RDFALIGN_RDF_DICTIONARY_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "util/flat_id_table.h"
#include "util/hash.h"

namespace rdfalign {

static_assert(FlatIdTable::kEmpty == kInvalidLex,
              "a FlatIdTable miss must read as kInvalidLex");

/// Append-only interner of lexical forms. Not thread-safe to grow; const
/// members are pure reads.
class Dictionary {
 public:
  Dictionary() = default;

  // Movable but not copyable: interned string_views point into strings_
  // (deque nodes and pinned arenas survive a move).
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// The term hash HashOf() caches: eight bytes per step, then a SplitMix64
  /// finalizer. Stable within a process only.
  static uint64_t Hash(std::string_view s) {
    const char* p = s.data();
    size_t n = s.size();
    uint64_t h = s.size() * 0x9e3779b97f4a7c15ULL;
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 32;
    }
    if (n > 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, n);
      h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
    }
    return Mix64(h);
  }

  /// Interns `s`, returning its id; repeated calls with equal strings return
  /// the same id. The bytes are copied into the dictionary.
  LexId Intern(std::string_view s) {
    return Insert(s, Hash(s), /*copy=*/true);
  }

  /// Keeps `arena` alive for the lifetime of this dictionary so that views
  /// into it may be interned without copying.
  void PinArena(std::shared_ptr<const void> arena) {
    arenas_.push_back(std::move(arena));
  }

  /// Interns `s` *by reference*: the dictionary stores the view itself, not
  /// a copy. `s` must point into memory registered with PinArena() (or
  /// otherwise outlive the dictionary). Used by the snapshot loader.
  LexId InternPinned(std::string_view s) {
    return Insert(s, Hash(s), /*copy=*/false);
  }

  /// InternPinned with the term's hash already known; `hash` must equal
  /// Hash(s) — typically another dictionary's HashOf() for the same term.
  LexId InternPinned(std::string_view s, uint64_t hash) {
    return Insert(s, hash, /*copy=*/false);
  }

  /// Returns the id of `s` or kInvalidLex when not interned.
  LexId Find(std::string_view s) const {
    const uint64_t h = Hash(s);
    return index_.Find(h, Matches{this, s, h});
  }

  /// Makes room for `n` terms in total, so that interning up to that many
  /// neither regrows the index nor reallocates the per-id columns.
  void Reserve(size_t n) {
    if (n > views_.capacity()) {
      // At least doubling keeps a run of loads into one shared dictionary
      // (each reserving its own term count on top) amortized linear.
      const size_t cap = std::max(n, 2 * views_.capacity());
      views_.reserve(cap);
      hashes_.reserve(cap);
    }
    index_.Reserve(n, [this](LexId id) { return hashes_[id]; });
  }

  /// The lexical form for an id. id must be valid.
  std::string_view Get(LexId id) const { return views_[id]; }

  /// Hash(Get(id)), cached at intern time. id must be valid.
  uint64_t HashOf(LexId id) const { return hashes_[id]; }

  size_t size() const { return views_.size(); }

 private:
  // Probe equality: the cached hash first, the bytes only on a hash match.
  struct Matches {
    const Dictionary* dict;
    std::string_view s;
    uint64_t h;
    bool operator()(LexId id) const {
      return dict->hashes_[id] == h && dict->views_[id] == s;
    }
  };

  LexId Insert(std::string_view s, uint64_t h, bool copy) {
    index_.Reserve(views_.size() + 1, [this](LexId id) { return hashes_[id]; });
    return index_.FindOrInsert(h, Matches{this, s, h}, [&] {
      if (copy) {
        strings_.emplace_back(s);
        s = strings_.back();
      }
      views_.push_back(s);
      hashes_.push_back(h);
      return static_cast<LexId>(views_.size() - 1);
    });
  }

  // std::deque keeps element references stable under growth, so views into
  // strings_ remain valid.
  std::deque<std::string> strings_;
  // id -> lexical form; points into strings_ or into a pinned arena.
  std::vector<std::string_view> views_;
  // id -> Hash(views_[id]).
  std::vector<uint64_t> hashes_;
  // External buffers (snapshot load buffers / file mappings) whose bytes
  // back InternPinned() entries.
  std::vector<std::shared_ptr<const void>> arenas_;
  // Hash index over the ids, probed with hashes_.
  FlatIdTable index_;
};

}  // namespace rdfalign

#endif  // RDFALIGN_RDF_DICTIONARY_H_
