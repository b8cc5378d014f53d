#include "store/archive_io.h"

#include <bit>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>

#include "core/delta.h"
#include "store/atomic_writer.h"
#include "store/container.h"
#include "store/delta.h"
#include "store/snapshot.h"

namespace rdfalign::store {

namespace {

/// Caps num_versions so every size computation below stays far from
/// overflow (also the VersionArchive practical range).
constexpr uint64_t kMaxArchiveVersions = uint64_t{1} << 20;

/// A saved archive with V >= 1 versions has 2V sections: the base
/// snapshot, V-1 deltas, V entity columns. An empty archive has none.
uint64_t ExpectedSections(uint64_t num_versions) {
  return num_versions == 0 ? 0 : 2 * num_versions;
}

ArchiveSectionId ExpectedSectionId(uint64_t num_versions, uint64_t index) {
  if (index == 0) return ArchiveSectionId::kBaseSnapshot;
  if (index < num_versions) return ArchiveSectionId::kDelta;
  return ArchiveSectionId::kEntities;
}

const ContainerFormat kArchiveFormat = {
    "archive",
    kArchiveMagic,
    kArchiveFormatVersion,
    kArchiveFormatVersion,
    sizeof(ArchiveHeader),
    [](const unsigned char* header) -> std::optional<uint64_t> {
      ArchiveHeader h;
      std::memcpy(&h, header, sizeof(h));
      if (h.num_versions > kMaxArchiveVersions) return std::nullopt;
      return ExpectedSections(h.num_versions);
    },
    [](uint64_t count, uint64_t index) {
      return static_cast<uint32_t>(ExpectedSectionId(count / 2, index));
    },
    [](uint32_t id) {
      return ArchiveSectionName(static_cast<ArchiveSectionId>(id));
    },
};

/// Entity columns hold whole ids. Shared by LoadArchive and
/// ReadArchiveInfo.
Status ValidateLayout(const Container& c, const std::string& name) {
  const uint64_t num_versions = c.table.size() / 2;
  for (uint64_t v = 0; v < num_versions; ++v) {
    if (c.table[num_versions + v].size % sizeof(EntityId) != 0) {
      return Status::Corruption(
          "archive entity section holds partial elements: " + name);
    }
  }
  return Status::OK();
}

}  // namespace

std::string_view ArchiveSectionName(ArchiveSectionId id) {
  switch (id) {
    case ArchiveSectionId::kBaseSnapshot:
      return "base_snapshot";
    case ArchiveSectionId::kDelta:
      return "delta";
    case ArchiveSectionId::kEntities:
      return "entities";
  }
  return "unknown";
}

Status SaveArchive(const VersionArchive& archive, const std::string& path,
                   ArchiveSaveStats* stats) {
  static_assert(std::endian::native == std::endian::little,
                "archives are written on little-endian hosts only");
  const uint64_t num_versions = archive.NumVersions();
  if (num_versions > kMaxArchiveVersions) {
    return Status::InvalidArgument("too many versions for an archive file: " +
                                   path);
  }

  // Render the embedded images. Version 0 is a full snapshot; every later
  // version is a delta against its predecessor, with the node map derived
  // from the archive's entity chaining — no re-alignment.
  std::vector<std::string> images;
  images.reserve(num_versions);
  for (uint32_t v = 0; v < num_versions; ++v) {
    std::ostringstream image(std::ios::binary);
    if (v == 0) {
      RDFALIGN_RETURN_IF_ERROR(WriteSnapshotToStream(
          archive.Version(0), image, path + " (base snapshot)"));
    } else {
      const VersionNodeMap map =
          NodeMapFromEntities(archive.Entities(v - 1), archive.Entities(v));
      RDFALIGN_RETURN_IF_ERROR(WriteDeltaToStream(
          archive.Version(v - 1), archive.Version(v), map, image,
          path + " (delta " + std::to_string(v) + ")"));
    }
    images.push_back(std::move(image).str());
  }

  ArchiveSaveStats local_stats;
  std::vector<SectionSource> sections;
  sections.reserve(ExpectedSections(num_versions));
  for (uint32_t v = 0; v < num_versions; ++v) {
    if (v == 0) {
      sections.push_back({ArchiveSectionId::kBaseSnapshot, {images[v]}});
      local_stats.base_bytes += images[v].size();
    } else {
      sections.push_back({ArchiveSectionId::kDelta, {images[v]}});
      local_stats.delta_bytes += images[v].size();
    }
  }
  for (uint32_t v = 0; v < num_versions; ++v) {
    sections.push_back(
        {ArchiveSectionId::kEntities, {Bytes(archive.Entities(v))}});
    local_stats.entity_bytes += archive.Entities(v).size() * sizeof(EntityId);
  }
  ArchiveHeader header{};
  header.version = kArchiveFormatVersion;
  header.num_versions = num_versions;

  AtomicFileWriter writer(path, "archive");
  RDFALIGN_RETURN_IF_ERROR(writer.Open());
  Status body =
      WriteContainer(kArchiveFormat, header, sections, writer.stream(), path);
  if (!body.ok()) {
    Status io = writer.status();
    return io.ok() ? body : io;
  }
  RDFALIGN_RETURN_IF_ERROR(writer.Commit());
  if (stats != nullptr) {
    local_stats.file_bytes = header.file_size;
    *stats = local_stats;
  }
  return Status::OK();
}

Result<VersionArchive> LoadArchive(const std::string& path,
                                   AlignerOptions options,
                                   ArchiveLoadStats* stats) {
  static_assert(std::endian::native == std::endian::little,
                "archives are read on little-endian hosts only");
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kArchiveFormat, path, ContainerRead::kBuffered));
  RDFALIGN_RETURN_IF_ERROR(ValidateLayout(c, path));
  // Archive-level content verification before any section is interpreted
  // (the embedded snapshot/delta images additionally self-validate).
  RDFALIGN_RETURN_IF_ERROR(VerifySectionChecksums(c, 1, path));
  const std::vector<SectionEntry>& table = c.table;
  const unsigned char* base = c.data;
  const uint64_t num_versions = table.size() / 2;

  // Materialize every version by patch replay, all sharing one dictionary
  // (the VersionArchive invariant). The base snapshot adopts its arrays
  // zero-copy from the archive buffer; deltas build fresh arrays.
  auto dict = std::make_shared<Dictionary>();
  std::vector<TripleGraph> versions;
  versions.reserve(num_versions);
  for (uint64_t v = 0; v < num_versions; ++v) {
    const SectionEntry& sec = table[v];
    const std::string name =
        path + " (section " + std::string(ArchiveSectionName(
                                  ExpectedSectionId(num_versions, v))) +
        " " + std::to_string(v) + ")";
    if (v == 0) {
      RDFALIGN_ASSIGN_OR_RETURN(
          TripleGraph g,
          LoadSnapshotFromMemory(c.pin, base + sec.offset, sec.size, dict,
                                 nullptr, name));
      versions.push_back(std::move(g));
    } else {
      RDFALIGN_ASSIGN_OR_RETURN(
          TripleGraph g,
          ApplyDeltaFromMemory(versions.back(), base + sec.offset, sec.size,
                               dict, {}, nullptr, name));
      versions.push_back(std::move(g));
    }
  }
  std::vector<std::vector<EntityId>> entity_of;
  entity_of.reserve(num_versions);
  for (uint64_t v = 0; v < num_versions; ++v) {
    const SectionEntry& sec = table[num_versions + v];
    const uint64_t count = sec.size / sizeof(EntityId);
    if (count != versions[v].NumNodes()) {
      return Status::Corruption(
          "archive entity column size does not match version " +
          std::to_string(v) + ": " + path);
    }
    std::vector<EntityId> ids(count);
    if (sec.size > 0) {
      std::memcpy(ids.data(), base + sec.offset, sec.size);
    }
    entity_of.push_back(std::move(ids));
  }
  if (stats != nullptr) {
    stats->file_bytes = c.file_size;
    stats->versions = num_versions;
  }
  return VersionArchive::Restore(options, std::move(versions),
                                 std::move(entity_of));
}

Result<ArchiveInfo> ReadArchiveInfo(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kArchiveFormat, path, ContainerRead::kHeader));
  RDFALIGN_RETURN_IF_ERROR(ValidateLayout(c, path));
  const ArchiveHeader header = c.HeaderAs<ArchiveHeader>();
  ArchiveInfo info;
  info.version = header.version;
  info.num_versions = header.num_versions;
  info.file_size = header.file_size;
  for (const SectionEntry& sec : c.table) {
    info.sections.push_back(ArchiveSectionInfo{
        static_cast<ArchiveSectionId>(sec.id), sec.offset, sec.size,
        sec.checksum});
  }
  return info;
}

Result<uint64_t> ArchiveBaseFingerprint(const std::string& path) {
  RDFALIGN_ASSIGN_OR_RETURN(
      const Container c,
      ReadContainer(kArchiveFormat, path, ContainerRead::kHeader));
  RDFALIGN_RETURN_IF_ERROR(ValidateLayout(c, path));
  if (c.table.empty()) {
    return Status::InvalidArgument("empty archive has no base snapshot: " +
                                   path);
  }
  RDFALIGN_ASSIGN_OR_RETURN(auto image, ReadSectionPayload(c, path, 0));
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph base,
      LoadSnapshotFromMemory(image, image->data(), image->size(), nullptr,
                             nullptr, path + " (section base_snapshot 0)"));
  return GraphFingerprint(base);
}

bool LooksLikeArchive(const std::string& path) {
  return HasMagic(path, kArchiveMagic);
}

}  // namespace rdfalign::store
