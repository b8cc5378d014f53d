// Shared test fixtures: the paper's worked-example graphs (Figs. 1, 2, 3, 7),
// random RDF graph generators for property tests, and the crafted-file
// helpers of the store corruption tests.

#ifndef RDFALIGN_TESTS_TEST_UTIL_H_
#define RDFALIGN_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "rdf/graph.h"
#include "rdf/merge.h"
#include "store/format.h"
#include "util/random.h"

namespace rdfalign::testing {

/// The single RDF graph of Figure 2 (w, u, b1, b2, b3, "a", "b" and
/// predicates p, q, r); b2 and b3 are bisimilar.
TripleGraph Fig2Graph(std::shared_ptr<Dictionary> dict = nullptr);

/// The two versions of Figure 3 (sharing one dictionary): evolving by
/// merging equivalent blanks b2/b3 into b4 and renaming u to v.
std::pair<TripleGraph, TripleGraph> Fig3Graphs();

/// The two versions of Figure 1 (personal-information example; ASCII
/// transliteration: Slawek/Slawomir/Pawel).
std::pair<TripleGraph, TripleGraph> Fig1Graphs();

/// The two graphs of Figure 7 (σEdit example): literals "abc"/"c"/"b"/"a"
/// vs "ac"/"c"/"a" under w/u/v vs w2/u2/v2.
std::pair<TripleGraph, TripleGraph> Fig7Graphs();

/// Configuration of the random RDF graph generator.
struct RandomGraphOptions {
  size_t uris = 12;
  size_t literals = 10;
  size_t blanks = 6;
  size_t edges = 40;
  size_t predicates = 4;  ///< distinct predicate URIs drawn from the URI set
  uint64_t seed = 1;
};

/// A random well-formed RDF graph (literals only in object position,
/// non-blank predicates).
TripleGraph RandomGraph(const RandomGraphOptions& options,
                        std::shared_ptr<Dictionary> dict = nullptr);

/// A random evolving pair: the second graph is the first after random
/// literal edits, URI renames, node insertions and deletions, sharing one
/// dictionary. Returns the combined pair.
std::pair<TripleGraph, TripleGraph> RandomEvolvingPair(
    uint64_t seed, const RandomGraphOptions& base_options = {});

/// A random evolving chain of `versions` graphs sharing one dictionary:
/// version 0 is RandomGraph(base_options), each later version evolves its
/// predecessor by the same edit process as RandomEvolvingPair (literal
/// typos, URI renames, triple deletions, insertions). The delta-store
/// round-trip property tests replay these chains.
std::vector<TripleGraph> RandomEvolvingChain(
    uint64_t seed, size_t versions,
    const RandomGraphOptions& base_options = {});

/// CombinedGraph convenience (CHECK-fails on error).
CombinedGraph Combine(const TripleGraph& g1, const TripleGraph& g2);

/// Recomputes every section checksum and the header checksum of a store
/// container image (snapshot, delta, update fragment or archive, told
/// apart by the magic) after its bytes were edited, so the image models a
/// deliberately crafted file rather than bit rot.
void ResealContainer(char* image, size_t size);

/// Byte offset of section-table entry `section` in a container image.
size_t SectionEntryOffset(const char* image, size_t section);

/// Payload offset of `section` as recorded in the image's table.
uint64_t SectionPayloadOffset(const char* image, size_t section);

/// Overwrites sizeof(T) bytes at `byte_offset` within payload `section`
/// of a container image and reseals it: only structural validation can
/// reject the result. `Bytes` is std::vector<char> or std::string.
template <typename Bytes, typename T>
void PatchSectionWithValidChecksums(Bytes& bytes, size_t section,
                                    uint64_t byte_offset, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(bytes.data() + SectionPayloadOffset(bytes.data(), section) +
                  byte_offset,
              &value, sizeof(value));
  ResealContainer(bytes.data(), bytes.size());
}

/// Breaks the order of a front-coded (version-2) dictionary without
/// touching its geometry: the first term at index `first` or later (at
/// least 1) whose stored prefix is shorter than its predecessor gets the
/// first byte of its suffix, where the two diverge, lowered to 0x00, so it
/// now sorts before its predecessor. The image is resealed. The sections
/// are payload indexes of the suffix offsets, the suffix blob and the
/// prefix lengths. Returns the index of the broken term, or 0 when no term
/// qualifies.
template <typename Bytes>
size_t BreakFrontCodedOrder(Bytes& bytes, size_t offsets_section,
                            size_t blob_section, size_t prefix_section,
                            size_t first = 1) {
  const auto u64_at = [&bytes](uint64_t pos) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    return v;
  };
  const auto u32_at = [&bytes](uint64_t pos) {
    uint32_t v;
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    return v;
  };
  const uint64_t offsets = SectionPayloadOffset(bytes.data(), offsets_section);
  const uint64_t prefixes = SectionPayloadOffset(bytes.data(), prefix_section);
  const uint64_t count =
      u64_at(SectionEntryOffset(bytes.data(), prefix_section) +
             offsetof(store::SectionEntry, size)) /
      sizeof(uint32_t);
  const auto suffix_start = [&](uint64_t i) {
    return u64_at(offsets + i * sizeof(uint64_t));
  };
  const auto length = [&](uint64_t i) {
    return u32_at(prefixes + i * sizeof(uint32_t)) + suffix_start(i + 1) -
           suffix_start(i);
  };
  for (uint64_t i = first < 1 ? 1 : first; i < count; ++i) {
    if (u32_at(prefixes + i * sizeof(uint32_t)) < length(i - 1)) {
      PatchSectionWithValidChecksums(bytes, blob_section, suffix_start(i),
                                     static_cast<unsigned char>(0x00));
      return static_cast<size_t>(i);
    }
  }
  return 0;
}

}  // namespace rdfalign::testing

#endif  // RDFALIGN_TESTS_TEST_UTIL_H_
