// The shared store container (store/container.h): every format's read
// entry point rejects a directory and a junk file the same way, the
// reader enforces the packing rule — each payload at AlignUp(previous
// end), the last one ending at file_size — and every dictionary-bearing
// format rejects the same dictionary defects.

#include "store/container.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "core/delta.h"
#include "store/archive_io.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "test_util.h"

namespace rdfalign {
namespace {

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info->name();
  for (char& ch : test) {
    if (ch == '/') ch = '_';  // parameterized names carry a slash
  }
  return ::testing::TempDir() + "rdfalign_container_" + test + "_" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

/// One read entry point of one format, reduced to its status.
struct ReadEntryPoint {
  const char* name;
  std::function<Status(const std::string& path)> read;
};

std::ostream& operator<<(std::ostream& os, const ReadEntryPoint& e) {
  return os << e.name;
}

const TripleGraph& Base() {
  static const TripleGraph* base = new TripleGraph(testing::Fig2Graph());
  return *base;
}

const ReadEntryPoint kEntryPoints[] = {
    {"LoadSnapshot",
     [](const std::string& p) {
       return store::LoadSnapshot(p, nullptr).status();
     }},
    {"LoadSnapshotMmap",
     [](const std::string& p) {
       store::SnapshotLoadOptions options;
       options.use_mmap = true;
       return store::LoadSnapshot(p, nullptr, options).status();
     }},
    {"ReadSnapshotInfo",
     [](const std::string& p) { return store::ReadSnapshotInfo(p).status(); }},
    {"ApplyDelta",
     [](const std::string& p) {
       return store::ApplyDelta(Base(), p, nullptr).status();
     }},
    {"ReadDeltaInfo",
     [](const std::string& p) { return store::ReadDeltaInfo(p).status(); }},
    {"ReadUpdateFile",
     [](const std::string& p) { return store::ReadUpdateFile(p).status(); }},
    {"LoadArchive",
     [](const std::string& p) { return store::LoadArchive(p).status(); }},
    {"ReadArchiveInfo",
     [](const std::string& p) { return store::ReadArchiveInfo(p).status(); }},
    {"ArchiveBaseFingerprint",
     [](const std::string& p) {
       return store::ArchiveBaseFingerprint(p).status();
     }},
};

class ReadEntryPointTest : public ::testing::TestWithParam<ReadEntryPoint> {};

TEST_P(ReadEntryPointTest, DirectoryIsIOError) {
  const Status st = GetParam().read(::testing::TempDir());
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST_P(ReadEntryPointTest, JunkFileIsInvalidArgument) {
  const std::string path = TempPath("junk");
  WriteBytes(path, std::string(512, 'x'));
  const Status st = GetParam().read(path);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, ReadEntryPointTest, ::testing::ValuesIn(kEntryPoints),
    [](const ::testing::TestParamInfo<ReadEntryPoint>& info) {
      return std::string(info.param.name);
    });

TEST(StoreContainerTest, ReadFileBytesRejectsDirectory) {
  EXPECT_TRUE(store::ReadFileBytes(::testing::TempDir()).status().IsIOError());
}

/// Writes Fig2Graph's snapshot to `path` and returns its bytes.
std::string SnapshotBytes(const std::string& path) {
  EXPECT_TRUE(store::WriteSnapshot(testing::Fig2Graph(), path).ok());
  Result<std::string> bytes = store::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

void SetU64(std::string& bytes, size_t pos, uint64_t value) {
  std::memcpy(bytes.data() + pos, &value, sizeof(value));
}

uint64_t GetU64(const std::string& bytes, size_t pos) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

// Bytes past the last payload (file_size grown to match, checksums
// resealed) break the packing rule.
TEST(StoreContainerTest, RejectsTrailingBytes) {
  const std::string path = TempPath("trailing.snap");
  std::string bytes = SnapshotBytes(path);
  bytes.resize(bytes.size() + 8, '\0');
  SetU64(bytes, offsetof(store::SnapshotHeader, file_size), bytes.size());
  testing::ResealContainer(bytes.data(), bytes.size());
  WriteBytes(path, bytes);
  for (bool mmap : {false, true}) {
    store::SnapshotLoadOptions options;
    options.use_mmap = mmap;
    const Status st = store::LoadSnapshot(path, nullptr, options).status();
    EXPECT_TRUE(st.IsCorruption()) << st;
  }
  EXPECT_TRUE(store::ReadSnapshotInfo(path).status().IsCorruption());
  std::remove(path.c_str());
}

// A gap of one alignment unit before the last payload (its offset moved,
// file_size grown, checksums resealed) is rejected: payloads are packed.
TEST(StoreContainerTest, RejectsGapBetweenSections) {
  const std::string path = TempPath("gap.snap");
  std::string bytes = SnapshotBytes(path);
  const size_t last = store::kNumSectionsV2 - 1;
  const size_t offset_field = testing::SectionEntryOffset(bytes.data(), last) +
                              offsetof(store::SectionEntry, offset);
  const uint64_t offset = GetU64(bytes, offset_field);
  bytes.insert(offset, store::kSectionAlignment, '\0');
  SetU64(bytes, offset_field, offset + store::kSectionAlignment);
  SetU64(bytes, offsetof(store::SnapshotHeader, file_size), bytes.size());
  testing::ResealContainer(bytes.data(), bytes.size());
  WriteBytes(path, bytes);
  const Status st = store::LoadSnapshot(path, nullptr).status();
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("out of place"), std::string::npos) << st;
  std::remove(path.c_str());
}

// ------------------------------------------------- dictionary sections

std::string DataPath(const std::string& name) {
  return std::string(RDFALIGN_SOURCE_DIR) + "/tests/data/" + name;
}

std::string FileBytes(const std::string& path) {
  Result<std::string> bytes = store::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

/// Writes `bytes` to the scratch file `name` and returns its path.
std::string Scratch(const std::string& name, const std::string& bytes) {
  const std::string path = TempPath(name);
  WriteBytes(path, bytes);
  return path;
}

/// One crafted dictionary defect: `read` builds the file and reads it
/// back; the status must be Corruption and name `substring`.
struct DictionaryDefect {
  const char* name;
  std::function<Status()> read;
  const char* substring;
};

// The dictionary defects of snapshots, deltas and update fragments, each
// with the checksums resealed so that only structural validation can
// object: front-coded terms out of order with valid geometry, node
// columns naming no kind or no term, and version-1 term offsets that do
// not span their blob (on the committed fixtures).
TEST(StoreContainerTest, DictionaryDefectsAreCorruption) {
  const auto [g1, g2] = testing::RandomEvolvingPair(27);
  const std::string snap = [&g2] {
    const std::string path = TempPath("v2.snap");
    EXPECT_TRUE(store::WriteSnapshot(g2, path).ok());
    return FileBytes(path);
  }();
  const std::string delta = [&g1, &g2] {
    const std::string path = TempPath("v2.delta");
    VersionNodeMap none;
    none.next_to_base.assign(g2.NumNodes(), kInvalidNode);
    EXPECT_TRUE(store::WriteDelta(g1, g2, none, path).ok());
    return FileBytes(path);
  }();
  const std::string frag = [&g1, &g2] {
    Result<store::UpdateBatch> batch = store::BuildUpdateBatch(g1, g2, 1);
    EXPECT_TRUE(batch.ok()) << batch.status();
    Result<std::string> bytes = store::EncodeUpdateBatch(*batch);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    return *bytes;
  }();
  store::DeltaHeader delta_header;
  std::memcpy(&delta_header, delta.data(), sizeof(delta_header));
  store::UpdateHeader frag_header;
  std::memcpy(&frag_header, frag.data(), sizeof(frag_header));
  Result<TripleGraph> v1_base =
      store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(v1_base.ok()) << v1_base.status();

  const auto load = [](const std::string& path) {
    return store::LoadSnapshot(path, nullptr).status();
  };
  const auto apply = [](const TripleGraph& base, const std::string& path) {
    return store::ApplyDelta(base, path, nullptr).status();
  };
  const auto decode = [](const std::string& bytes) {
    return store::DecodeUpdateBatch(bytes, "crafted").status();
  };
  // Payload indexes. Snapshot: 0 term offsets, 1 blob, 9 prefix lengths.
  // Delta: 1 new-term offsets, 2 blob, 3 kinds, 4 term indexes, 9 prefix
  // lengths. Fragment: 0 term offsets, 1 blob, 2 kinds, 3 term indexes,
  // 7 prefix lengths.
  const DictionaryDefect defects[] = {
      {"snapshot terms out of order",
       [&] {
         std::string b = snap;
         EXPECT_NE(testing::BreakFrontCodedOrder(b, 0, 1, 9), 0u);
         return load(Scratch("order.snap", b));
       },
       "not strictly ascending"},
      {"delta new terms out of order",
       [&] {
         std::string b = delta;
         EXPECT_NE(testing::BreakFrontCodedOrder(b, 1, 2, 9), 0u);
         return apply(g1, Scratch("order.delta", b));
       },
       "not strictly ascending"},
      {"fragment terms out of order",
       [&] {
         std::string b = frag;
         EXPECT_NE(testing::BreakFrontCodedOrder(b, 0, 1, 7), 0u);
         return decode(b);
       },
       "not strictly ascending"},
      {"delta node kind above blank",
       [&] {
         std::string b = delta;
         testing::PatchSectionWithValidChecksums(b, 3, 0, uint8_t{7});
         return apply(g1, Scratch("kind.delta", b));
       },
       "node kind out of range"},
      {"delta node term past the table",
       [&] {
         std::string b = delta;
         testing::PatchSectionWithValidChecksums(
             b, 4, 0, static_cast<uint32_t>(delta_header.next_terms));
         return apply(g1, Scratch("term.delta", b));
       },
       "node label references"},
      {"fragment node kind above blank",
       [&] {
         std::string b = frag;
         testing::PatchSectionWithValidChecksums(b, 2, 0, uint8_t{7});
         return decode(b);
       },
       "node kind out of range"},
      {"fragment node term past the table",
       [&] {
         std::string b = frag;
         testing::PatchSectionWithValidChecksums(
             b, 3, 0, static_cast<uint32_t>(frag_header.num_terms));
         return decode(b);
       },
       "missing term"},
      {"v1 snapshot offsets short of the blob",
       [&] {
         std::string b = FileBytes(DataPath("fixture_base_v1.snap"));
         testing::PatchSectionWithValidChecksums(b, 0, 0, uint64_t{1});
         return load(Scratch("span.snap", b));
       },
       "does not span"},
      {"v1 delta offsets short of the blob",
       [&] {
         std::string b = FileBytes(DataPath("fixture_v1.delta"));
         testing::PatchSectionWithValidChecksums(b, 1, 0, uint64_t{1});
         return apply(*v1_base, Scratch("span.delta", b));
       },
       "does not span"},
      {"v1 fragment offsets short of the blob",
       [&] {
         std::string b = FileBytes(DataPath("fixture_v1.rdfu"));
         testing::PatchSectionWithValidChecksums(b, 0, 0, uint64_t{1});
         return store::ReadUpdateFile(Scratch("span.rdfu", b)).status();
       },
       "does not span"},
  };
  for (const DictionaryDefect& d : defects) {
    SCOPED_TRACE(d.name);
    const Status st = d.read();
    EXPECT_TRUE(st.IsCorruption()) << st;
    EXPECT_NE(st.message().find(d.substring), std::string::npos) << st;
  }
  for (const char* name : {"v2.snap", "v2.delta", "order.snap", "order.delta",
                           "kind.delta", "term.delta", "span.snap",
                           "span.delta", "span.rdfu"}) {
    std::remove(TempPath(name).c_str());
  }
}

}  // namespace
}  // namespace rdfalign
