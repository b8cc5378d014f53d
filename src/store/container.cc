#include "store/container.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <ostream>
#include <utility>

#include "store/mapped_file.h"
#include "util/thread_pool.h"

namespace rdfalign::store {

namespace {

static_assert(std::endian::native == std::endian::little,
              "containers are read and written on little-endian hosts only");

/// The common trailing header fields, at header_size - sizeof(Tail).
struct Tail {
  uint64_t num_sections;
  uint64_t file_size;
  uint64_t header_checksum;
};
static_assert(sizeof(Tail) == 24);

Tail TailOf(const ContainerFormat& format, const unsigned char* header) {
  Tail t;
  std::memcpy(&t, header + format.header_size - sizeof(Tail), sizeof(t));
  return t;
}

/// Checksum64 of header + table with the header_checksum field zeroed.
uint64_t HeaderChecksum(const ContainerFormat& format,
                        const unsigned char* header,
                        std::span<const SectionEntry> table) {
  std::array<unsigned char, kMaxContainerHeader> zeroed;
  std::memcpy(zeroed.data(), header, format.header_size);
  std::memset(zeroed.data() + format.header_size - sizeof(uint64_t), 0,
              sizeof(uint64_t));
  Checksummer c;
  c.Update(zeroed.data(), format.header_size);
  c.Update(table.data(), table.size_bytes());
  return c.Finish();
}

uint64_t PayloadStart(const ContainerFormat& format, uint64_t num_sections) {
  return format.header_size + num_sections * sizeof(SectionEntry);
}

Status Corrupt(const ContainerFormat& format, const std::string& what,
               const std::string& name) {
  return Status::Corruption(std::string(format.kind) + " " + what + ": " +
                            name);
}

/// Checks 1-4 up to the presence of the section table, from the first
/// `available` bytes at `head` of an image of `actual_size` bytes. On
/// success the header is in `c` and c->table is sized (not filled).
Status CheckHead(const ContainerFormat& format, const unsigned char* head,
                 uint64_t available, uint64_t actual_size, Container* c,
                 const std::string& name) {
  if (available < format.header_size) {
    return Status::Corruption("truncated " + std::string(format.kind) +
                              " (no header): " + name);
  }
  std::memcpy(c->header_bytes.data(), head, format.header_size);
  c->format = &format;
  if (std::memcmp(head, format.magic.data(), format.magic.size()) != 0) {
    return Status::InvalidArgument("not an rdfalign " +
                                   std::string(format.kind) + ": " + name);
  }
  uint32_t version;
  std::memcpy(&version, head + 8, sizeof(version));
  if (version < format.min_version || version > format.max_version) {
    const std::string readable =
        format.min_version == format.max_version
            ? "version " + std::to_string(format.min_version)
            : "versions " + std::to_string(format.min_version) + "-" +
                  std::to_string(format.max_version);
    return Status::NotSupported("unsupported " + std::string(format.kind) +
                                " format version " + std::to_string(version) +
                                " (this build reads " + readable +
                                "): " + name);
  }
  uint32_t endian_tag;
  std::memcpy(&endian_tag, head + 12, sizeof(endian_tag));
  if (endian_tag != kEndianTag) {
    return Status::NotSupported(std::string(format.kind) +
                                " written with a different byte order: " +
                                name);
  }
  const Tail tail = TailOf(format, head);
  const std::optional<uint64_t> count = format.num_sections(head);
  if (!count || tail.num_sections != *count) {
    return Corrupt(format, "has an unexpected section count", name);
  }
  if (tail.file_size != actual_size) {
    return Corrupt(format,
                   "size mismatch (header says " +
                       std::to_string(tail.file_size) + " bytes, file has " +
                       std::to_string(actual_size) + ")",
                   name);
  }
  if (actual_size < PayloadStart(format, *count)) {
    return Status::Corruption("truncated " + std::string(format.kind) +
                              " (no section table): " + name);
  }
  c->file_size = actual_size;
  c->table.resize(*count);
  return Status::OK();
}

/// Checks 4-5 once c->table holds the section table.
Status CheckTable(const Container& c, const std::string& name) {
  const ContainerFormat& format = *c.format;
  const Tail tail = TailOf(format, c.header_bytes.data());
  if (HeaderChecksum(format, c.header_bytes.data(), c.table) !=
      tail.header_checksum) {
    return Corrupt(format, "header checksum mismatch", name);
  }
  const uint64_t count = c.table.size();
  for (uint64_t s = 0; s < count; ++s) {
    if (c.table[s].id != format.section_id(count, s) ||
        c.table[s].reserved != 0) {
      return Corrupt(format, "has a malformed section table", name);
    }
  }
  uint64_t end = PayloadStart(format, count);
  for (uint64_t s = 0; s < count; ++s) {
    const SectionEntry& sec = c.table[s];
    if (sec.offset != AlignUp(end) || sec.offset > c.file_size ||
        sec.size > c.file_size - sec.offset) {
      return Status::Corruption(c.SectionLabel(s) + " out of place: " + name);
    }
    end = sec.offset + sec.size;
  }
  if (end != c.file_size) {
    return Corrupt(format, "does not end at its last section", name);
  }
  return Status::OK();
}

Status CheckRegularFile(const std::string& path) {
  // A directory "opens" as an ifstream on Linux and tellg() then reports a
  // nonsense size (observed: -1 or LLONG_MAX).
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    return Status::IOError("not a regular file: " + path);
  }
  return Status::OK();
}

/// Opens a regular file for reading and returns its size.
Result<uint64_t> OpenRegularFile(const std::string& path, std::ifstream& in) {
  RDFALIGN_RETURN_IF_ERROR(CheckRegularFile(path));
  in.open(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IOError("cannot open file: " + path);
  }
  const std::streamoff pos = in.tellg();
  if (!in || pos < 0) {
    return Status::IOError("cannot determine file size: " + path);
  }
  return static_cast<uint64_t>(pos);
}

Status ReadAt(std::ifstream& in, uint64_t offset, void* dst, uint64_t n,
              const std::string& path) {
  if (n == 0) return Status::OK();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!in) {
    return Status::IOError("error reading file: " + path);
  }
  return Status::OK();
}

/// `n` bytes at `offset` into a fresh buffer; a file too large for memory
/// is a Status, not a bad_alloc.
Result<std::shared_ptr<std::vector<unsigned char>>> ReadBuffer(
    std::ifstream& in, uint64_t offset, uint64_t n, std::string_view kind,
    const std::string& path) {
  std::shared_ptr<std::vector<unsigned char>> buffer;
  try {
    buffer = std::make_shared<std::vector<unsigned char>>(n);
  } catch (const std::bad_alloc&) {
    return Status::IOError(std::string(kind) + " too large to buffer (" +
                           std::to_string(n) + " bytes): " + path);
  }
  RDFALIGN_RETURN_IF_ERROR(ReadAt(in, offset, buffer->data(), n, path));
  return buffer;
}

/// Emits header, table, padding and payloads, in file order, to `put`;
/// stops at the first false. Fills the header's common fields first.
bool Emit(const ContainerFormat& format, unsigned char* header,
          std::span<const SectionSource> sections,
          const std::function<bool(std::string_view)>& put) {
  std::memcpy(header, format.magic.data(), format.magic.size());
  std::memcpy(header + 12, &kEndianTag, sizeof(kEndianTag));
  std::vector<SectionEntry> table(sections.size());
  uint64_t end = PayloadStart(format, sections.size());
  for (size_t s = 0; s < sections.size(); ++s) {
    Checksummer c;
    uint64_t size = 0;
    for (std::string_view chunk : sections[s].chunks) {
      c.Update(chunk.data(), chunk.size());
      size += chunk.size();
    }
    table[s] = SectionEntry{sections[s].id, 0, AlignUp(end), size,
                            c.Finish()};
    end = table[s].offset + size;
  }
  const Tail tail{sections.size(), end, 0};
  std::memcpy(header + format.header_size - sizeof(Tail), &tail,
              sizeof(tail));
  const uint64_t checksum = HeaderChecksum(format, header, table);
  std::memcpy(header + format.header_size - sizeof(uint64_t), &checksum,
              sizeof(checksum));

  const auto bytes = [](const void* p, size_t n) {
    return std::string_view(static_cast<const char*>(p), n);
  };
  if (!put(bytes(header, format.header_size)) ||
      !put(bytes(table.data(), table.size() * sizeof(SectionEntry)))) {
    return false;
  }
  static constexpr char kZeros[kSectionAlignment] = {};
  uint64_t written = PayloadStart(format, sections.size());
  for (size_t s = 0; s < sections.size(); ++s) {
    if (table[s].offset > written &&
        !put(bytes(kZeros, table[s].offset - written))) {
      return false;
    }
    for (std::string_view chunk : sections[s].chunks) {
      if (!chunk.empty() && !put(chunk)) return false;
    }
    written = table[s].offset + table[s].size;
  }
  return true;
}

}  // namespace

std::string Container::SectionLabel(size_t index) const {
  return std::string(format->kind) + " section " + std::to_string(index) +
         " (" + std::string(format->section_name(table[index].id)) + ")";
}

Result<Container> ParseContainer(const ContainerFormat& format,
                                 std::shared_ptr<const void> pin,
                                 const unsigned char* data, uint64_t size,
                                 const std::string& name) {
  Container c;
  RDFALIGN_RETURN_IF_ERROR(CheckHead(format, data, size, size, &c, name));
  if (!c.table.empty()) {  // an empty table's data() may be null
    std::memcpy(c.table.data(), data + format.header_size,
                c.table.size() * sizeof(SectionEntry));
  }
  RDFALIGN_RETURN_IF_ERROR(CheckTable(c, name));
  c.data = data;
  c.pin = std::move(pin);
  return c;
}

Result<Container> ReadContainer(const ContainerFormat& format,
                                const std::string& path, ContainerRead how) {
  if (how == ContainerRead::kMapped) {
    RDFALIGN_RETURN_IF_ERROR(CheckRegularFile(path));
    RDFALIGN_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                              MappedFile::Open(path));
    const unsigned char* data = file->data();
    const uint64_t size = file->size();
    return ParseContainer(format, std::move(file), data, size, path);
  }
  std::ifstream in;
  RDFALIGN_ASSIGN_OR_RETURN(const uint64_t size, OpenRegularFile(path, in));
  std::array<unsigned char, kMaxContainerHeader> head{};
  const uint64_t head_bytes = std::min<uint64_t>(size, format.header_size);
  RDFALIGN_RETURN_IF_ERROR(ReadAt(in, 0, head.data(), head_bytes, path));
  Container c;
  RDFALIGN_RETURN_IF_ERROR(
      CheckHead(format, head.data(), head_bytes, size, &c, path));
  RDFALIGN_RETURN_IF_ERROR(ReadAt(in, format.header_size, c.table.data(),
                                  c.table.size() * sizeof(SectionEntry),
                                  path));
  RDFALIGN_RETURN_IF_ERROR(CheckTable(c, path));
  if (how == ContainerRead::kHeader) return c;
  RDFALIGN_ASSIGN_OR_RETURN(auto buffer,
                            ReadBuffer(in, 0, size, format.kind, path));
  c.data = buffer->data();
  c.pin = std::move(buffer);
  return c;
}

Status VerifySectionChecksums(const Container& c, size_t threads,
                              const std::string& name) {
  const size_t count = c.table.size();
  std::vector<uint8_t> bad(count, 0);
  ParallelChunks(count, threads, /*grain=*/1,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t s = begin; s < end; ++s) {
                     bad[s] = Checksum64(c.data + c.table[s].offset,
                                         c.table[s].size) !=
                              c.table[s].checksum;
                   }
                 });
  for (size_t s = 0; s < count; ++s) {
    if (bad[s]) {
      return Status::Corruption(c.SectionLabel(s) +
                                " checksum mismatch: " + name);
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const std::vector<unsigned char>>> ReadSectionPayload(
    const Container& c, const std::string& path, size_t index) {
  std::ifstream in;
  RDFALIGN_RETURN_IF_ERROR(OpenRegularFile(path, in).status());
  const SectionEntry& sec = c.table[index];
  RDFALIGN_ASSIGN_OR_RETURN(
      auto buffer, ReadBuffer(in, sec.offset, sec.size, c.format->kind, path));
  if (Checksum64(buffer->data(), sec.size) != sec.checksum) {
    return Status::Corruption(c.SectionLabel(index) +
                              " checksum mismatch: " + path);
  }
  return std::shared_ptr<const std::vector<unsigned char>>(std::move(buffer));
}

bool HasMagic(const std::string& path, const std::array<char, 8>& magic) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::array<char, 8> head = {};
  in.read(head.data(), head.size());
  return in.gcount() == static_cast<std::streamsize>(head.size()) &&
         head == magic;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in;
  RDFALIGN_ASSIGN_OR_RETURN(const uint64_t size, OpenRegularFile(path, in));
  std::string bytes;
  try {
    bytes.resize(size);
  } catch (const std::bad_alloc&) {
    return Status::IOError("file too large to buffer (" +
                           std::to_string(size) + " bytes): " + path);
  }
  RDFALIGN_RETURN_IF_ERROR(ReadAt(in, 0, bytes.data(), size, path));
  return bytes;
}

namespace container_internal {

Status WriteContainer(const ContainerFormat& format, unsigned char* header,
                      std::span<const SectionSource> sections,
                      std::ostream& out, const std::string& name) {
  const bool ok = Emit(format, header, sections, [&out](std::string_view b) {
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
    return static_cast<bool>(out);
  });
  if (ok) out.flush();
  if (!ok || !out) {
    return Status::IOError("error writing " + std::string(format.kind) +
                           ": " + name);
  }
  return Status::OK();
}

std::string EncodeContainer(const ContainerFormat& format,
                            unsigned char* header,
                            std::span<const SectionSource> sections) {
  std::string image;
  Emit(format, header, sections, [&](std::string_view b) {
    // The first chunk is the finished header: reserve the whole image.
    if (image.empty()) image.reserve(TailOf(format, header).file_size);
    image.append(b);
    return true;
  });
  return image;
}

}  // namespace container_internal

}  // namespace rdfalign::store
