// FlatIdTable: an open-addressing hash index over dense 32-bit ids.
//
// The table stores ids and nothing else; the owner keeps whatever an id
// stands for (a dictionary's terms, a graph's node labels) and supplies
// the hash and the equality test on every call. Capacity is a power of
// two, probing is linear, and the load factor stays at or below 3/4.
// A slot is four bytes in one flat array, so building the index costs a
// handful of reallocations instead of one heap node per entry.
//
// Const members are pure reads: a fully built table may be probed by any
// number of concurrent readers.

#ifndef RDFALIGN_UTIL_FLAT_ID_TABLE_H_
#define RDFALIGN_UTIL_FLAT_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdfalign {

class FlatIdTable {
 public:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  /// Makes room for `n` ids at load factor <= 3/4, re-inserting the
  /// stored ids with `hash_of(id)` when the table grows.
  template <typename HashOf>
  void Reserve(size_t n, const HashOf& hash_of) {
    if (n * 4 <= slots_.size() * 3) return;
    size_t cap = 16;
    while (n * 4 > cap * 3) cap *= 2;
    std::vector<uint32_t> old(cap, kEmpty);
    old.swap(slots_);
    const size_t mask = cap - 1;
    for (const uint32_t id : old) {
      if (id == kEmpty) continue;
      size_t i = hash_of(id) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  /// The stored id satisfying `eq(id)` on `hash`'s probe sequence, or
  /// kEmpty.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    return slots_.empty() ? kEmpty : slots_[Probe(hash, eq)];
  }

  /// Find, and on a miss stores `make_id()` and returns it. The owner must
  /// have reserved room for one more id.
  template <typename Eq, typename MakeId>
  uint32_t FindOrInsert(uint64_t hash, const Eq& eq, const MakeId& make_id) {
    uint32_t& slot = slots_[Probe(hash, eq)];
    if (slot == kEmpty) slot = make_id();
    return slot;
  }

 private:
  // The slot holding the id that satisfies `eq`, else the empty slot that
  // ends the probe sequence. Requires a non-empty table below full load.
  template <typename Eq>
  size_t Probe(uint64_t hash, const Eq& eq) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i] != kEmpty && !eq(slots_[i])) i = (i + 1) & mask;
    return i;
  }

  std::vector<uint32_t> slots_;
};

}  // namespace rdfalign

#endif  // RDFALIGN_UTIL_FLAT_ID_TABLE_H_
