// The container shared by every rdfalign binary format: RDFSNAP1
// snapshots, RDFDELT1 deltas, RDFUPDT1 update fragments and RDFARCH1
// archives. See docs/store.md ("Container") for the normative text.
//
//   [ header: magic, version, endian_tag, <format fields>,
//             num_sections, file_size, header_checksum              ]
//   [ SectionEntry * num_sections                                     ]
//   [ payloads, each at AlignUp(end of the previous one), zero padded ]
//
// The file ends where the last payload ends. header_checksum is the
// Checksum64 of header + section table with that field zeroed; every
// table entry carries the Checksum64 of its payload.
//
// This module is the one place that writes or validates a header, a
// section table, padding or section checksums. A format supplies its
// ContainerFormat and keeps only its own header fields, count bounds,
// expected section sizes and the meaning of its payloads.

#ifndef RDFALIGN_STORE_CONTAINER_H_
#define RDFALIGN_STORE_CONTAINER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/format.h"
#include "util/result.h"

namespace rdfalign::store {

/// Largest header of any format (the delta header, 104 bytes).
inline constexpr size_t kMaxContainerHeader = 128;

/// What the container reader and writer need to know of one format.
struct ContainerFormat {
  std::string_view kind;  ///< "snapshot", "delta", ... (error messages)
  std::array<char, 8> magic;
  uint32_t min_version;   ///< readable versions, inclusive
  uint32_t max_version;
  size_t header_size;     ///< sizeof the format's header struct
  /// The section count a header (whose version is readable) requires, or
  /// nullopt when its own fields are implausible.
  std::optional<uint64_t> (*num_sections)(const unsigned char* header);
  /// The id section `index` of `count` must carry.
  uint32_t (*section_id)(uint64_t count, uint64_t index);
  /// The name of a section id, for messages.
  std::string_view (*section_name)(uint32_t id);
};

/// section_id for formats whose ids are 1, 2, 3, ... in file order.
inline uint32_t SequentialSectionId(uint64_t /*count*/, uint64_t index) {
  return static_cast<uint32_t>(index + 1);
}

/// A container whose header and section table passed validation.
struct Container {
  const ContainerFormat* format = nullptr;
  std::array<unsigned char, kMaxContainerHeader> header_bytes{};
  std::vector<SectionEntry> table;
  uint64_t file_size = 0;
  /// The whole image; null after a header-only read.
  const unsigned char* data = nullptr;
  /// Keeps `data` alive (the read buffer or the mapping); null when the
  /// caller owns the memory.
  std::shared_ptr<const void> pin;

  /// The header as the format's struct.
  template <typename Header>
  Header HeaderAs() const {
    static_assert(std::is_trivially_copyable_v<Header> &&
                  sizeof(Header) <= kMaxContainerHeader);
    Header h;
    std::memcpy(&h, header_bytes.data(), sizeof(Header));
    return h;
  }

  /// Payload `index` as an array of T. Payloads are 8-byte aligned and
  /// both backings (a page-aligned mapping, an operator-new buffer) are at
  /// least that aligned, so the cast is sound for the fixed-width
  /// little-endian element types of the formats.
  template <typename T>
  std::span<const T> Section(size_t index) const {
    return {reinterpret_cast<const T*>(data + table[index].offset),
            static_cast<size_t>(table[index].size / sizeof(T))};
  }

  /// "<kind> section <index> (<name>)", for messages.
  std::string SectionLabel(size_t index) const;
};

/// How ReadContainer acquires the bytes.
enum class ContainerRead {
  kHeader,    ///< header and section table only (`rdfalign info`)
  kBuffered,  ///< the whole file into a fresh buffer
  kMapped,    ///< the whole file mapped read-only
};

/// Reads and validates the container at `path`. Only regular files are
/// accepted (IOError otherwise). The buffered and header-only reads
/// validate the header and section table from the file's prefix before
/// any allocation the size of the file; an allocation failure is an
/// IOError. The checks, in order:
///
///   1. a header is present ........................... Corruption
///   2. magic ......................................... InvalidArgument
///   3. version, endianness ........................... NotSupported
///   4. section count, file_size, section table present,
///      header checksum, section ids, reserved fields  Corruption
///   5. packing: each payload at AlignUp(previous end),
///      the last one ending at file_size .............. Corruption
///
/// Section checksums are the separate VerifySectionChecksums pass.
Result<Container> ReadContainer(const ContainerFormat& format,
                                const std::string& path, ContainerRead how);

/// The same validation over an image already in memory (an archive
/// section, a stream frame). `pin` may be null when the caller keeps
/// [data, data + size) alive.
Result<Container> ParseContainer(const ContainerFormat& format,
                                 std::shared_ptr<const void> pin,
                                 const unsigned char* data, uint64_t size,
                                 const std::string& name);

/// Checks every payload against its table checksum on up to `threads`
/// lanes (1 keeps it on the calling thread); the first mismatch in file
/// order is reported as Corruption.
Status VerifySectionChecksums(const Container& c, size_t threads,
                              const std::string& name);

/// Reads payload `index` of a container validated by a header-only read
/// into a fresh buffer and verifies its checksum.
Result<std::shared_ptr<const std::vector<unsigned char>>> ReadSectionPayload(
    const Container& c, const std::string& path, size_t index);

/// True when the file at `path` starts with `magic`.
bool HasMagic(const std::string& path, const std::array<char, 8>& magic);

/// Reads a whole regular file (any content). A directory or a missing
/// file is an IOError, and so is a file too large to buffer.
Result<std::string> ReadFileBytes(const std::string& path);

// ------------------------------------------------------------- writing

/// One section to write: its id and its payload as byte chunks that are
/// concatenated on disk, so a term blob can be given term by term
/// without being copied into one buffer.
struct SectionSource {
  template <typename Id>
  SectionSource(Id section_id, std::vector<std::string_view> payload)
      : id(static_cast<uint32_t>(section_id)), chunks(std::move(payload)) {}
  uint32_t id;
  std::vector<std::string_view> chunks;
};

/// The bytes of an array, as one chunk.
template <typename T>
std::string_view Bytes(std::span<const T> a) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const char*>(a.data()), a.size() * sizeof(T)};
}
template <typename T>
std::string_view Bytes(const std::vector<T>& v) {
  return Bytes(std::span<const T>(v));
}

namespace container_internal {

Status WriteContainer(const ContainerFormat& format, unsigned char* header,
                      std::span<const SectionSource> sections,
                      std::ostream& out, const std::string& name);
std::string EncodeContainer(const ContainerFormat& format,
                            unsigned char* header,
                            std::span<const SectionSource> sections);

/// Every header starts with {magic, version, endian_tag} and ends with
/// {num_sections, file_size, header_checksum}.
template <typename Header>
constexpr bool IsContainerHeader() {
  return std::is_trivially_copyable_v<Header> &&
         std::is_standard_layout_v<Header> &&
         sizeof(Header) <= kMaxContainerHeader &&
         offsetof(Header, version) == 8 &&
         offsetof(Header, endian_tag) == 12 &&
         offsetof(Header, num_sections) == sizeof(Header) - 24 &&
         offsetof(Header, file_size) == sizeof(Header) - 16 &&
         offsetof(Header, header_checksum) == sizeof(Header) - 8;
}

}  // namespace container_internal

/// Lays out and writes one container to `out`. The caller sets the
/// header's version and its own fields; this sets the magic, the endian
/// tag, num_sections, file_size and header_checksum (so `header` holds
/// the written header afterwards), assigns every payload its aligned
/// offset and checksum, and writes header, table, zero padding and
/// payloads. `name` labels the IOError.
template <typename Header>
Status WriteContainer(const ContainerFormat& format, Header& header,
                      std::span<const SectionSource> sections,
                      std::ostream& out, const std::string& name) {
  static_assert(container_internal::IsContainerHeader<Header>());
  return container_internal::WriteContainer(
      format, reinterpret_cast<unsigned char*>(&header), sections, out,
      name);
}

/// The same, returning the image as a string.
template <typename Header>
std::string EncodeContainer(const ContainerFormat& format, Header& header,
                            std::span<const SectionSource> sections) {
  static_assert(container_internal::IsContainerHeader<Header>());
  return container_internal::EncodeContainer(
      format, reinterpret_cast<unsigned char*>(&header), sections);
}

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_CONTAINER_H_
