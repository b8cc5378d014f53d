// Backward-compatibility pins for the version-1 (raw dictionary) store
// formats. Version 1 is read-only: the fixtures in tests/data/ were
// produced by a pre-front-coding build of the CLI (`rdfalign
// build/diff/updates/archive`) and are committed verbatim; this suite
// proves that the current build still reads every one of them
// bit-identically, through every load path, and that a crafted v1 term
// table is rejected. If any of these tests start failing, the format
// compatibility promise of docs/store.md is broken.
//
// RDFALIGN_SOURCE_DIR is injected by CMake so the suite can run from any
// build directory.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parser/ntriples_parser.h"
#include "store/archive_io.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "test_util.h"
#include "util/status.h"

namespace rdfalign {
namespace {

// GraphFingerprint of tests/data/fixture_base.nt, as reported by the
// pre-change `rdfalign info --json` that generated the fixtures. Pinned
// as a literal so a silent fingerprint-definition change cannot
// masquerade as compatibility.
constexpr uint64_t kBaseFingerprint = 0x476e94bc2da9aa60ull;

std::string DataPath(const std::string& name) {
  return std::string(RDFALIGN_SOURCE_DIR) + "/tests/data/" + name;
}

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in) << path;
  std::vector<char> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_compat_" + info->name() + "_" +
         name;
}

::testing::AssertionResult BitIdentical(const TripleGraph& a,
                                        const TripleGraph& b) {
  if (const char* what = GraphsBitDiffer(a, b)) {
    return ::testing::AssertionFailure() << what << " differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(FormatCompatTest, V1SnapshotsStillLoad) {
  auto info = store::ReadSnapshotInfo(DataPath("fixture_base_v1.snap"));
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kFormatVersion);
  EXPECT_EQ(info->sections.size(), store::kNumSections);

  auto loaded =
      store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(store::GraphFingerprint(*loaded), kBaseFingerprint);

  // The snapshot must reproduce the graph the .nt fixture parses to.
  auto parsed = ParseNTriplesFile(DataPath("fixture_base.nt"), nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(BitIdentical(*parsed, *loaded));
  EXPECT_EQ(store::GraphFingerprint(*parsed), kBaseFingerprint);

  auto next = store::LoadSnapshot(DataPath("fixture_next_v1.snap"), nullptr);
  ASSERT_TRUE(next.ok()) << next.status();
  auto next_parsed =
      ParseNTriplesFile(DataPath("fixture_next.nt"), nullptr);
  ASSERT_TRUE(next_parsed.ok()) << next_parsed.status();
  EXPECT_TRUE(BitIdentical(*next_parsed, *next));
}

// Every load path reads the v1 snapshot to the graph the .nt fixture
// parses to: buffered or mmap, into a fresh or a shared (already
// populated) dictionary.
TEST(FormatCompatTest, V1SnapshotLoadsEveryWay) {
  auto parsed = ParseNTriplesFile(DataPath("fixture_base.nt"), nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  for (bool mmap : {false, true}) {
    for (bool shared : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "mmap " << mmap << " shared "
                                        << shared);
      std::shared_ptr<Dictionary> dict;
      if (shared) {
        dict = std::make_shared<Dictionary>();
        auto other =
            store::LoadSnapshot(DataPath("fixture_next_v1.snap"), dict);
        ASSERT_TRUE(other.ok()) << other.status();
      }
      store::SnapshotLoadOptions options;
      options.use_mmap = mmap;
      store::SnapshotLoadStats stats;
      auto loaded = store::LoadSnapshot(DataPath("fixture_base_v1.snap"),
                                        dict, options, &stats);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_TRUE(BitIdentical(*parsed, *loaded));
      EXPECT_EQ(stats.identity_term_map, !shared);
    }
  }
}

/// Reads `name`, breaks the monotonicity of its v1 term-offset table
/// (payload `section`, entry 1) with the checksums resealed, writes the
/// result and returns its path.
std::string CraftV1TermOffsetDefect(const std::string& name,
                                    size_t section) {
  std::vector<char> bytes = ReadAllBytes(DataPath(name));
  testing::PatchSectionWithValidChecksums(bytes, section, sizeof(uint64_t),
                                          uint64_t{1} << 40);
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out) << path;
  return path;
}

// One crafted v1 term-table defect per dictionary-bearing format: the
// container is intact, so only the v1 geometry check can reject it.
TEST(FormatCompatTest, V1TermOffsetDefectsAreCorruption) {
  auto base = store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(base.ok()) << base.status();
  const auto expect_corruption = [](const Status& st) {
    EXPECT_TRUE(st.IsCorruption()) << st;
    EXPECT_NE(st.message().find("term offsets not monotonic"),
              std::string::npos)
        << st;
  };
  // Section 0 = term_offsets (snapshot, fragment); 1 = new_term_offsets.
  const std::string snap = CraftV1TermOffsetDefect("fixture_base_v1.snap", 0);
  for (bool mmap : {false, true}) {
    store::SnapshotLoadOptions options;
    options.use_mmap = mmap;
    expect_corruption(store::LoadSnapshot(snap, nullptr, options).status());
  }
  const std::string delta = CraftV1TermOffsetDefect("fixture_v1.delta", 1);
  expect_corruption(store::ApplyDelta(*base, delta, nullptr).status());
  const std::string frag = CraftV1TermOffsetDefect("fixture_v1.rdfu", 0);
  expect_corruption(store::ReadUpdateFile(frag).status());
  for (const std::string& p : {snap, delta, frag}) std::remove(p.c_str());
}

// A v1 snapshot survives a load -> compressed (v2) save -> load cycle
// unchanged: the two load paths must agree bit for bit.
TEST(FormatCompatTest, V1ToV2RoundTripPreservesGraph) {
  auto v1 = store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(v1.ok()) << v1.status();
  const std::string out = TempPath("v2.snap");
  ASSERT_TRUE(store::WriteSnapshot(*v1, out).ok());
  auto info = store::ReadSnapshotInfo(out);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kFormatVersionFrontCoded);
  auto v2 = store::LoadSnapshot(out, nullptr);
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_TRUE(BitIdentical(*v1, *v2));
  EXPECT_EQ(store::GraphFingerprint(*v2), kBaseFingerprint);
  std::remove(out.c_str());
}

TEST(FormatCompatTest, V1DeltaStillApplies) {
  auto info = store::ReadDeltaInfo(DataPath("fixture_v1.delta"));
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, store::kDeltaFormatVersion);
  EXPECT_EQ(info->sections.size(), store::kNumDeltaSections);
  EXPECT_EQ(info->base_fingerprint, kBaseFingerprint);

  auto base = store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(base.ok()) << base.status();
  auto applied =
      store::ApplyDelta(*base, DataPath("fixture_v1.delta"), nullptr);
  ASSERT_TRUE(applied.ok()) << applied.status();
  auto next = store::LoadSnapshot(DataPath("fixture_next_v1.snap"), nullptr);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE(BitIdentical(*next, *applied));
}

TEST(FormatCompatTest, V1UpdateFragmentStillDecodes) {
  auto batch = store::ReadUpdateFile(DataPath("fixture_v1.rdfu"));
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->sequence, 7u);
  EXPECT_GT(batch->added.size() + batch->removed.size(), 0u);
}

TEST(FormatCompatTest, V1ArchiveStillLoads) {
  auto fp = store::ArchiveBaseFingerprint(DataPath("fixture_v1.archive"));
  ASSERT_TRUE(fp.ok()) << fp.status();
  EXPECT_EQ(*fp, kBaseFingerprint);

  store::ArchiveLoadStats stats;
  auto archive = store::LoadArchive(DataPath("fixture_v1.archive"), {},
                                    &stats);
  ASSERT_TRUE(archive.ok()) << archive.status();
  ASSERT_EQ(stats.versions, 2u);
  auto base = store::LoadSnapshot(DataPath("fixture_base_v1.snap"), nullptr);
  ASSERT_TRUE(base.ok()) << base.status();
  auto next = store::LoadSnapshot(DataPath("fixture_next_v1.snap"), nullptr);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE(BitIdentical(archive->Version(0), *base));
  EXPECT_TRUE(BitIdentical(archive->Version(1), *next));
}

}  // namespace
}  // namespace rdfalign
