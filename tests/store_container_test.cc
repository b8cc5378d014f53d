// The shared store container (store/container.h): every format's read
// entry point rejects a directory and a junk file the same way, and the
// reader enforces the packing rule — each payload at AlignUp(previous
// end), the last one ending at file_size.

#include "store/container.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rdfalign
