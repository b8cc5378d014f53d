// Golden store bytes: the size and Checksum64 of every writer's output on
// fixed inputs, pinned as literals, for all four formats (snapshot,
// delta, update fragment, archive). Any change to a header field, the
// section table, the padding or a payload byte shows up here. A
// deliberate format change must update these pins in the same commit;
// any other diff is a regression.
//
// Inputs: the committed tests/data/fixture_{base,next}.nt pair and one
// generated pair with blank nodes (testing::RandomEvolvingPair).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/aligner.h"
#include "core/archive.h"
#include "core/delta.h"
#include "parser/ntriples_parser.h"
#include "store/archive_io.h"
#include "store/delta.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "test_util.h"

namespace rdfalign {
namespace {

struct Pin {
  uint64_t size;
  uint64_t checksum;
};

bool operator==(const Pin& a, const Pin& b) {
  return a.size == b.size && a.checksum == b.checksum;
}

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{%llu, 0x%016llxull}",
                static_cast<unsigned long long>(p.size),
                static_cast<unsigned long long>(p.checksum));
  return os << buf;
}

Pin PinOf(const std::string& bytes) {
  return {bytes.size(), store::Checksum64(bytes.data(), bytes.size())};
}

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_golden_" + info->name() + "_" +
         name;
}

/// Reads and removes `path`.
std::string TakeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

std::pair<TripleGraph, TripleGraph> FixturePair() {
  auto dict = std::make_shared<Dictionary>();
  const std::string dir = std::string(RDFALIGN_SOURCE_DIR) + "/tests/data/";
  auto base = ParseNTriplesFile(dir + "fixture_base.nt", dict);
  auto next = ParseNTriplesFile(dir + "fixture_next.nt", dict);
  EXPECT_TRUE(base.ok() && next.ok());
  return {std::move(base).value(), std::move(next).value()};
}

/// The four writers' outputs on one version pair: base and next
/// snapshots, the hybrid-aligned delta, the update fragment, and the
/// two-version archive.
struct Outputs {
  Pin base_snapshot, next_snapshot, delta, fragment, archive;
};

Outputs WriteAll(const TripleGraph& base, const TripleGraph& next) {
  Outputs out{};
  const std::string snap = TempPath("g.snap");
  EXPECT_TRUE(store::WriteSnapshot(base, snap).ok());
  out.base_snapshot = PinOf(TakeFile(snap));
  EXPECT_TRUE(store::WriteSnapshot(next, snap).ok());
  out.next_snapshot = PinOf(TakeFile(snap));

  CombinedGraph cg = testing::Combine(base, next);
  AlignerOptions options;
  options.method = AlignMethod::kHybrid;
  Aligner aligner(options);
  const VersionNodeMap map =
      NodeMapFromPartition(cg, aligner.AlignCombined(cg).partition);
  const std::string delta = TempPath("g.delta");
  EXPECT_TRUE(store::WriteDelta(base, next, map, delta).ok());
  out.delta = PinOf(TakeFile(delta));

  auto batch = store::BuildUpdateBatch(base, next, 5);
  EXPECT_TRUE(batch.ok()) << batch.status();
  auto fragment = store::EncodeUpdateBatch(*batch);
  EXPECT_TRUE(fragment.ok()) << fragment.status();
  out.fragment = PinOf(*fragment);

  VersionArchive archive(options);
  EXPECT_TRUE(archive.Append(base).ok());
  EXPECT_TRUE(archive.Append(next).ok());
  const std::string arch = TempPath("g.archive");
  EXPECT_TRUE(store::SaveArchive(archive, arch).ok());
  out.archive = PinOf(TakeFile(arch));
  return out;
}

void ExpectPins(const Outputs& got, const Outputs& want) {
  EXPECT_EQ(got.base_snapshot, want.base_snapshot) << "base snapshot";
  EXPECT_EQ(got.next_snapshot, want.next_snapshot) << "next snapshot";
  EXPECT_EQ(got.delta, want.delta) << "delta";
  EXPECT_EQ(got.fragment, want.fragment) << "update fragment";
  EXPECT_EQ(got.archive, want.archive) << "archive";
}

TEST(StoreGoldenTest, FixturePairBytes) {
  auto [base, next] = FixturePair();
  ExpectPins(WriteAll(base, next),
             {.base_snapshot = {1844, 0x9dae79f7a8012e0full},
              .next_snapshot = {1836, 0xb273e8891454e5cfull},
              .delta = {1032, 0x790fdf520b155cbeull},
              .fragment = {896, 0x1d3db79508fb26bcull},
              .archive = {3424, 0xb630ef676a55b457ull}});
}

TEST(StoreGoldenTest, BlankBearingPairBytes) {
  auto [base, next] = testing::RandomEvolvingPair(19);
  ExpectPins(WriteAll(base, next),
             {.base_snapshot = {2648, 0x7b6d6921deaf3d43ull},
              .next_snapshot = {3084, 0xf99c7ae9b540f044ull},
              .delta = {1784, 0xea8abbcbba5ce732ull},
              .fragment = {1916, 0x58e2b2c5b3638f09ull},
              .archive = {5128, 0x470580421b9cecd4ull}});
}

}  // namespace
}  // namespace rdfalign
