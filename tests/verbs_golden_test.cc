// Byte-exact pins of everything the service layer prints: every public
// *ToJson / *ToText renderer of service/verbs.h on fixed response values,
// each verb's accepted flag set and first-reported flag error, and a
// small daemon session's stream / stats bodies and response envelopes.
// The pinned strings are the historical output; a renderer or parser
// change that moves a byte fails here. Strings in the fixtures carry no
// quote, backslash or control byte, so escaping does not show in them
// (verbs_test.cc pins the escaping itself).
//
// The flag and session pins run through a live daemon on an ephemeral
// port, the same dispatch the one-shot CLI uses.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/stream_verbs.h"
#include "service/verbs.h"
#include "store/update_fragment.h"

namespace rdfalign::service {
namespace {

std::string ScratchPrefix() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_golden_" + info->name();
}

// ------------------------------------------------------------- renderers

store::SnapshotInfo SnapshotFixture() {
  store::SnapshotInfo info;
  info.version = 2;
  info.num_nodes = 1234;
  info.num_triples = 5678;
  info.num_terms = 910;
  info.file_size = 65536;
  info.sections = {
      {store::SectionId::kTermOffsets, 96, 7288, 0x0123456789abcdefULL},
      {store::SectionId::kTriples, 7384, 68136, 0xfedcba9876543210ULL}};
  return info;
}

TEST(VerbsGoldenTest, InfoRenderings) {
  InfoResponse snap;
  snap.path = "v1.snap";
  snap.kind = "snapshot";
  snap.snapshot = SnapshotFixture();
  snap.has_fingerprint = true;
  snap.fingerprint = 0x00000000deadbeefULL;
  EXPECT_EQ(InfoToJson(snap),
            "{\n"
            "  \"path\": \"v1.snap\",\n"
            "  \"version\": 2,\n"
            "  \"nodes\": 1234,\n"
            "  \"triples\": 5678,\n"
            "  \"terms\": 910,\n"
            "  \"fingerprint\": \"00000000deadbeef\",\n"
            "  \"file_bytes\": 65536,\n"
            "  \"sections\": [\n"
            "    {\"name\": \"term_offsets\", \"offset\": 96, \"bytes\": 7288, "
            "\"checksum\": \"0123456789abcdef\"},\n"
            "    {\"name\": \"triples\", \"offset\": 7384, \"bytes\": 68136, "
            "\"checksum\": \"fedcba9876543210\"}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(InfoToText(snap),
            "rdfalign snapshot v1.snap\n"
            "  format version : 2\n"
            "  nodes          : 1234\n"
            "  triples        : 5678\n"
            "  dictionary     : 910 terms\n"
            "  file size      : 65536 bytes\n"
            "  sections:\n"
            "    term_offsets offset=96         bytes=7288       "
            "checksum=0123456789abcdef\n"
            "    triples      offset=7384       bytes=68136      "
            "checksum=fedcba9876543210\n");
  // Without a fingerprint and without sections (the empty-array shape).
  InfoResponse bare = snap;
  bare.has_fingerprint = false;
  bare.snapshot.sections.clear();
  EXPECT_EQ(InfoToJson(bare),
            "{\n"
            "  \"path\": \"v1.snap\",\n"
            "  \"version\": 2,\n"
            "  \"nodes\": 1234,\n"
            "  \"triples\": 5678,\n"
            "  \"terms\": 910,\n"
            "  \"file_bytes\": 65536,\n"
            "  \"sections\": [\n"
            "  ]\n"
            "}\n");

  InfoResponse delta;
  delta.path = "d.delta";
  delta.kind = "delta";
  delta.delta.version = 2;
  delta.delta.base_nodes = 10;
  delta.delta.base_triples = 20;
  delta.delta.base_terms = 30;
  delta.delta.base_fingerprint = 0xabcULL;
  delta.delta.next_nodes = 11;
  delta.delta.next_triples = 21;
  delta.delta.next_terms = 31;
  delta.delta.num_new_terms = 1;
  delta.delta.file_size = 4096;
  delta.delta.sections = {{store::DeltaSectionId::kTermSources, 96, 124, 7},
                          {store::DeltaSectionId::kNodeRemap, 220, 44, 8}};
  delta.has_fingerprint = true;
  delta.fingerprint = 0xabcULL;
  EXPECT_EQ(InfoToJson(delta),
            "{\n"
            "  \"path\": \"d.delta\",\n"
            "  \"kind\": \"delta\",\n"
            "  \"version\": 2,\n"
            "  \"base\": {\"nodes\": 10, \"triples\": 20, \"terms\": 30, "
            "\"fingerprint\": \"0000000000000abc\"},\n"
            "  \"next\": {\"nodes\": 11, \"triples\": 21, \"terms\": 31, "
            "\"new_terms\": 1},\n"
            "  \"file_bytes\": 4096,\n"
            "  \"sections\": [\n"
            "    {\"name\": \"term_sources\", \"offset\": 96, \"bytes\": 124, "
            "\"checksum\": \"0000000000000007\"},\n"
            "    {\"name\": \"node_remap\", \"offset\": 220, \"bytes\": 44, "
            "\"checksum\": \"0000000000000008\"}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(InfoToText(delta),
            "rdfalign delta d.delta\n"
            "  format version : 2\n"
            "  base           : 10 nodes, 20 triples, 30 terms\n"
            "  base fingerprint: 0000000000000abc\n"
            "  next           : 11 nodes, 21 triples, 31 terms (1 new)\n"
            "  file size      : 4096 bytes\n"
            "  sections:\n"
            "    term_sources     offset=96         bytes=124        "
            "checksum=0000000000000007\n"
            "    node_remap       offset=220        bytes=44         "
            "checksum=0000000000000008\n");

  InfoResponse archive;
  archive.path = "c.archive";
  archive.kind = "archive";
  archive.archive.version = 1;
  archive.archive.num_versions = 2;
  archive.archive.file_size = 9000;
  archive.archive.sections = {
      {store::ArchiveSectionId::kBaseSnapshot, 64, 5000, 0x11},
      {store::ArchiveSectionId::kDelta, 5064, 3000, 0x22}};
  archive.has_fingerprint = true;
  archive.fingerprint = 0x1234ULL;
  EXPECT_EQ(InfoToJson(archive),
            "{\n"
            "  \"path\": \"c.archive\",\n"
            "  \"kind\": \"archive\",\n"
            "  \"version\": 1,\n"
            "  \"versions\": 2,\n"
            "  \"base_fingerprint\": \"0000000000001234\",\n"
            "  \"file_bytes\": 9000,\n"
            "  \"sections\": [\n"
            "    {\"name\": \"base_snapshot\", \"offset\": 64, \"bytes\": 5000, "
            "\"checksum\": \"0000000000000011\"},\n"
            "    {\"name\": \"delta\", \"offset\": 5064, \"bytes\": 3000, "
            "\"checksum\": \"0000000000000022\"}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(InfoToText(archive),
            "rdfalign archive c.archive\n"
            "  format version : 1\n"
            "  versions       : 2\n"
            "  file size      : 9000 bytes\n"
            "  sections:\n"
            "    base_snapshot offset=64         bytes=5000       "
            "checksum=0000000000000011\n"
            "    delta         offset=5064       bytes=3000       "
            "checksum=0000000000000022\n");

  InfoResponse update;
  update.path = "u.rdfu";
  update.kind = "update";
  update.update.sequence = 7;
  update.update.refs = 12;
  update.update.new_nodes = 3;
  update.update.removed_nodes = 2;
  update.update.removed_triples = 5;
  update.update.added_triples = 9;
  update.update.file_bytes = 777;
  EXPECT_EQ(InfoToJson(update),
            "{\n"
            "  \"path\": \"u.rdfu\",\n"
            "  \"kind\": \"update\",\n"
            "  \"sequence\": 7,\n"
            "  \"refs\": 12,\n"
            "  \"new_nodes\": 3,\n"
            "  \"removed_nodes\": 2,\n"
            "  \"removed_triples\": 5,\n"
            "  \"added_triples\": 9,\n"
            "  \"file_bytes\": 777\n"
            "}\n");
  EXPECT_EQ(InfoToText(update),
            "rdfalign update fragment u.rdfu\n"
            "  sequence       : 7\n"
            "  node refs      : 12 (3 new)\n"
            "  removed        : 5 triples, 2 nodes\n"
            "  added          : 9 triples\n"
            "  file size      : 777 bytes\n");
}

TEST(VerbsGoldenTest, BuildAlignDiffPatchRenderings) {
  BuildResponse build;
  build.output = "v1.snap";
  build.nodes = 100;
  build.triples = 250;
  build.parse_ms = 1.234;
  build.write_ms = 5.678;
  build.threads = 4;
  EXPECT_EQ(BuildToJson(build),
            "{\n"
            "  \"output\": \"v1.snap\",\n"
            "  \"nodes\": 100,\n"
            "  \"triples\": 250,\n"
            "  \"threads\": 4,\n"
            "  \"parse_ms\": 1.23,\n"
            "  \"write_ms\": 5.68\n"
            "}\n");
  EXPECT_EQ(BuildToText(build),
            "built v1.snap: 100 nodes, 250 triples (parse 1.2 ms, write 5.7 "
            "ms, 4 threads)\n");

  AlignResponse align;
  align.method = AlignMethod::kOverlap;
  align.threads = 2;
  align.path_a = "a.snap";
  align.kind_a = "snapshot";
  align.path_b = "b.nt";
  align.kind_b = "ntriples";
  align.nodes_a = 10;
  align.triples_a = 20;
  align.nodes_b = 11;
  align.triples_b = 22;
  align.load_a_ms = 0.5;
  align.load_b_ms = 12.345;
  align.seconds = 0.01234567;
  align.phases = {1.111, 2.222, 3.333, 4.444, 5.555, 6.666};
  align.edge_stats.total_edges = 3;
  align.edge_stats.aligned_edges = 2;
  align.node_stats.aligned_classes = 7;
  align.node_stats.aligned_source_nodes = 8;
  align.node_stats.aligned_target_nodes = 9;
  align.node_stats.unaligned_source_nodes = 1;
  align.node_stats.unaligned_target_nodes = 2;
  align.refinement.iterations = 4;
  align.refinement.final_classes = 15;
  EXPECT_EQ(AlignToJson(align),
            "{\n"
            "  \"method\": \"overlap\",\n"
            "  \"threads\": 2,\n"
            "  \"a\": {\"path\": \"a.snap\", \"kind\": \"snapshot\", "
            "\"nodes\": 10, \"triples\": 20, \"load_ms\": 0.50},\n"
            "  \"b\": {\"path\": \"b.nt\", \"kind\": \"ntriples\", "
            "\"nodes\": 11, \"triples\": 22, \"load_ms\": 12.35},\n"
            "  \"align_seconds\": 0.0123,\n"
            "  \"phases\": {\"merge_ms\": 1.11, \"refine_ms\": 2.22, "
            "\"enrich_ms\": 3.33, \"overlap_index_ms\": 4.44, "
            "\"match_ms\": 5.55, \"stats_ms\": 6.67},\n"
            "  \"aligned_edge_ratio\": 0.666667,\n"
            "  \"aligned_edges\": 2,\n"
            "  \"total_edges\": 3,\n"
            "  \"aligned_classes\": 7,\n"
            "  \"unaligned_source_nodes\": 1,\n"
            "  \"unaligned_target_nodes\": 2,\n"
            "  \"refinement_iterations\": 4,\n"
            "  \"final_classes\": 15\n"
            "}\n");
  EXPECT_EQ(AlignToText(align),
            "alignment report (overlap)\n"
            "  a: a.snap [snapshot] 10 nodes, 20 triples, loaded in 0.5 ms\n"
            "  b: b.nt [ntriples] 11 nodes, 22 triples, loaded in 12.3 ms\n"
            "  threads            : 2\n"
            "  align time         : 0.012 s\n"
            "  phases (ms)        : merge 1.1, refine 2.2, enrich 3.3, index "
            "4.4, match 5.6, stats 6.7\n"
            "  aligned edge ratio : 0.6667 (2 / 3)\n"
            "  aligned classes    : 7\n"
            "  aligned nodes      : 8 source, 9 target\n"
            "  unaligned nodes    : 1 source, 2 target\n"
            "  refinement         : 4 iterations, 15 classes\n");

  DiffResponse diff;
  diff.method = AlignMethod::kHybrid;
  diff.threads = 1;
  diff.path_base = "a.snap";
  diff.kind_base = "snapshot";
  diff.path_next = "b.snap";
  diff.kind_next = "snapshot";
  diff.path_out = "d.delta";
  diff.nodes_base = 10;
  diff.triples_base = 20;
  diff.nodes_next = 12;
  diff.triples_next = 24;
  diff.stats = {18, 2, 6, 3, 9, 4, 2048};
  diff.align_ms = 3.14159;
  diff.write_ms = 2.71828;
  EXPECT_EQ(DiffToJson(diff),
            "{\n"
            "  \"method\": \"hybrid\",\n"
            "  \"threads\": 1,\n"
            "  \"base\": {\"path\": \"a.snap\", \"kind\": \"snapshot\", "
            "\"nodes\": 10, \"triples\": 20},\n"
            "  \"next\": {\"path\": \"b.snap\", \"kind\": \"snapshot\", "
            "\"nodes\": 12, \"triples\": 24},\n"
            "  \"delta\": \"d.delta\",\n"
            "  \"kept_triples\": 18,\n"
            "  \"removed_triples\": 2,\n"
            "  \"added_triples\": 6,\n"
            "  \"new_terms\": 3,\n"
            "  \"mapped_nodes\": 9,\n"
            "  \"kept_runs\": 4,\n"
            "  \"delta_bytes\": 2048,\n"
            "  \"align_ms\": 3.14,\n"
            "  \"write_ms\": 2.72\n"
            "}\n");
  EXPECT_EQ(DiffToText(diff),
            "wrote delta d.delta (2048 bytes)\n"
            "  base            : a.snap [snapshot] 10 nodes, 20 triples\n"
            "  next            : b.snap [snapshot] 12 nodes, 24 triples\n"
            "  change          : ~18 kept (+6 -2), 3 new terms\n"
            "  mapped nodes    : 9 / 12 (4 kept runs)\n"
            "  align 3.1 ms, write 2.7 ms\n");

  PatchResponse patch;
  patch.threads = 3;
  patch.path_base = "a.snap";
  patch.kind_base = "snapshot";
  patch.path_delta = "d.delta";
  patch.path_out = "r.snap";
  patch.nodes_base = 10;
  patch.triples_base = 20;
  patch.nodes = 12;
  patch.triples = 24;
  patch.stats.kept_triples = 18;
  patch.stats.removed_triples = 2;
  patch.stats.added_triples = 6;
  patch.load_ms = 0.125;
  patch.apply_ms = 0.375;
  patch.write_ms = 1.005;
  EXPECT_EQ(PatchToJson(patch),
            "{\n"
            "  \"threads\": 3,\n"
            "  \"base\": {\"path\": \"a.snap\", \"kind\": \"snapshot\", "
            "\"nodes\": 10, \"triples\": 20},\n"
            "  \"delta\": \"d.delta\",\n"
            "  \"out\": \"r.snap\",\n"
            "  \"nodes\": 12,\n"
            "  \"triples\": 24,\n"
            "  \"kept_triples\": 18,\n"
            "  \"removed_triples\": 2,\n"
            "  \"added_triples\": 6,\n"
            "  \"load_ms\": 0.12,\n"
            "  \"apply_ms\": 0.38,\n"
            "  \"write_ms\": 1.00\n"
            "}\n");
  EXPECT_EQ(PatchToText(patch),
            "patched a.snap + d.delta -> r.snap: 12 nodes, 24 triples (~18 "
            "kept +6 -2)\n"
            "  load 0.1 ms, apply 0.4 ms, write 1.0 ms\n");
}

TEST(VerbsGoldenTest, ArchiveGenCacheUpdatesRenderings) {
  ArchiveResponse archive;
  archive.method = AlignMethod::kDeblank;
  archive.threads = 2;
  archive.path_out = "c.archive";
  archive.stats.versions = 3;
  archive.stats.triple_version_pairs = 300;
  archive.stats.interval_records = 120;
  archive.stats.distinct_triples = 110;
  archive.stats.entities = 50;
  archive.save_stats.file_bytes = 8000;
  archive.save_stats.base_bytes = 5000;
  archive.save_stats.delta_bytes = 2500;
  archive.append_ms = 10.555;
  archive.save_ms = 0.004;
  EXPECT_EQ(ArchiveToJson(archive),
            "{\n"
            "  \"archive\": \"c.archive\",\n"
            "  \"method\": \"deblank\",\n"
            "  \"threads\": 2,\n"
            "  \"versions\": 3,\n"
            "  \"entities\": 50,\n"
            "  \"distinct_triples\": 110,\n"
            "  \"interval_records\": 120,\n"
            "  \"triple_version_pairs\": 300,\n"
            "  \"compression_ratio\": 2.5000,\n"
            "  \"file_bytes\": 8000,\n"
            "  \"base_bytes\": 5000,\n"
            "  \"delta_bytes\": 2500,\n"
            "  \"append_ms\": 10.55,\n"
            "  \"save_ms\": 0.00\n"
            "}\n");
  EXPECT_EQ(ArchiveToText(archive),
            "archived 3 versions -> c.archive (8000 bytes)\n"
            "  entities            : 50\n"
            "  interval records    : 120 (distinct triples 110)\n"
            "  compression ratio   : 2.50x (300 triple-version pairs)\n"
            "  base 5000 bytes + deltas 2500 bytes\n"
            "  append 10.6 ms, save 0.0 ms\n");

  GenResponse gen_empty;
  gen_empty.prefix = "out/v_";
  EXPECT_EQ(GenToJson(gen_empty),
            "{\n"
            "  \"prefix\": \"out/v_\",\n"
            "  \"versions\": 0,\n"
            "  \"files\": [\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(GenToText(gen_empty), "");
  GenResponse gen = gen_empty;
  gen.files = {{"out/v_1.nt", 100, 200}, {"out/v_2.nt", 101, 203}};
  EXPECT_EQ(GenToJson(gen),
            "{\n"
            "  \"prefix\": \"out/v_\",\n"
            "  \"versions\": 2,\n"
            "  \"files\": [\n"
            "    {\"path\": \"out/v_1.nt\", \"nodes\": 100, \"triples\": 200},\n"
            "    {\"path\": \"out/v_2.nt\", \"nodes\": 101, \"triples\": 203}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(GenToText(gen),
            "wrote out/v_1.nt: 100 nodes, 200 triples\n"
            "wrote out/v_2.nt: 101 nodes, 203 triples\n");

  CacheResponse stats0;
  stats0.action = "stats";
  stats0.stats = {5, 6, 1, 0, 0, 0, 1 << 20};
  EXPECT_EQ(CacheToJson(stats0),
            "{\n"
            "  \"action\": \"stats\",\n"
            "  \"capacity_bytes\": 1048576,\n"
            "  \"resident_bytes\": 0,\n"
            "  \"entries\": 0,\n"
            "  \"hits\": 5,\n"
            "  \"misses\": 6,\n"
            "  \"evictions\": 1,\n"
            "  \"duplicate_loads\": 0,\n"
            "  \"cached\": [\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(CacheToText(stats0),
            "snapshot cache: 0 entries, 0 / 1048576 bytes\n"
            "  hits 5, misses 6, evictions 1, duplicate loads 0\n");
  CacheResponse stats2 = stats0;
  stats2.stats.entries = 2;
  stats2.stats.resident_bytes = 3000;
  stats2.entries = {{0xaaULL, 1000, 1, "v1.snap", 10, 20},
                    {0xbbULL, 2000, 0, "v2.snap", 11, 22}};
  EXPECT_EQ(CacheToJson(stats2),
            "{\n"
            "  \"action\": \"stats\",\n"
            "  \"capacity_bytes\": 1048576,\n"
            "  \"resident_bytes\": 3000,\n"
            "  \"entries\": 2,\n"
            "  \"hits\": 5,\n"
            "  \"misses\": 6,\n"
            "  \"evictions\": 1,\n"
            "  \"duplicate_loads\": 0,\n"
            "  \"cached\": [\n"
            "    {\"fingerprint\": \"00000000000000aa\", \"bytes\": 1000, "
            "\"refs\": 1, \"nodes\": 10, \"triples\": 20, \"path\": "
            "\"v1.snap\"},\n"
            "    {\"fingerprint\": \"00000000000000bb\", \"bytes\": 2000, "
            "\"refs\": 0, \"nodes\": 11, \"triples\": 22, \"path\": "
            "\"v2.snap\"}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(CacheToText(stats2),
            "snapshot cache: 2 entries, 3000 / 1048576 bytes\n"
            "  hits 5, misses 6, evictions 1, duplicate loads 0\n"
            "  00000000000000aa  1000 bytes  refs=1  10 nodes, 20 triples  "
            "v1.snap\n"
            "  00000000000000bb  2000 bytes  refs=0  11 nodes, 22 triples  "
            "v2.snap\n");
  CacheResponse clear = stats0;
  clear.action = "clear";
  clear.dropped_entries = 2;
  EXPECT_EQ(CacheToJson(clear),
            "{\n"
            "  \"action\": \"clear\",\n"
            "  \"dropped_entries\": 2,\n"
            "  \"capacity_bytes\": 1048576,\n"
            "  \"resident_bytes\": 0,\n"
            "  \"entries\": 0,\n"
            "  \"hits\": 5,\n"
            "  \"misses\": 6,\n"
            "  \"evictions\": 1,\n"
            "  \"duplicate_loads\": 0\n"
            "}\n");
  EXPECT_EQ(CacheToText(clear),
            "cleared snapshot cache: dropped 2 entries\n");

  UpdatesResponse updates;
  updates.path_base = "a.snap";
  updates.kind_base = "snapshot";
  updates.path_next = "b.snap";
  updates.kind_next = "snapshot";
  updates.path_out = "u.rdfu";
  updates.nodes_base = 10;
  updates.triples_base = 20;
  updates.nodes_next = 12;
  updates.triples_next = 23;
  updates.refs = 6;
  updates.new_nodes = 2;
  updates.removed_nodes = 1;
  updates.removed_triples = 4;
  updates.added_triples = 7;
  updates.sequence = 3;
  updates.file_bytes = 512;
  updates.build_ms = 0.999;
  updates.write_ms = 0.001;
  EXPECT_EQ(UpdatesToJson(updates),
            "{\n"
            "  \"base\": {\"path\": \"a.snap\", \"kind\": \"snapshot\", "
            "\"nodes\": 10, \"triples\": 20},\n"
            "  \"next\": {\"path\": \"b.snap\", \"kind\": \"snapshot\", "
            "\"nodes\": 12, \"triples\": 23},\n"
            "  \"fragment\": \"u.rdfu\",\n"
            "  \"sequence\": 3,\n"
            "  \"refs\": 6,\n"
            "  \"new_nodes\": 2,\n"
            "  \"removed_nodes\": 1,\n"
            "  \"removed_triples\": 4,\n"
            "  \"added_triples\": 7,\n"
            "  \"fragment_bytes\": 512,\n"
            "  \"build_ms\": 1.00,\n"
            "  \"write_ms\": 0.00\n"
            "}\n");
  EXPECT_EQ(UpdatesToText(updates),
            "wrote update fragment u.rdfu (512 bytes, seq 3)\n"
            "  base            : a.snap [snapshot] 10 nodes, 20 triples\n"
            "  next            : b.snap [snapshot] 12 nodes, 23 triples\n"
            "  change          : +7 -4 triples, +2 -1 nodes (6 refs)\n"
            "  build 1.0 ms, write 0.0 ms\n");
}

// ------------------------------------------------------- daemon fixtures

class VerbsGoldenDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;
    options.worker_threads = 2;
    server_ = std::make_unique<Server>(options);
    Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
  }

  ClientResponse Call(const std::vector<std::string>& tokens) {
    Result<ClientResponse> resp = client_.Call(tokens);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? *resp : ClientResponse{};
  }

  std::unique_ptr<Server> server_;
  Client client_;
};

struct FlagCase {
  std::vector<std::string> verb_and_positionals;
  std::vector<std::string> accepted;  ///< each one parses (exit != 2)
  std::vector<std::string> rejected;  ///< each exits 2 as an unknown flag
};

// Every verb's exact accepted-flag set. Positional paths do not exist, so
// an accepted flag surfaces as a run failure (exit 1), never exit 2.
TEST_F(VerbsGoldenDaemonTest, AcceptedFlagSets) {
  const std::string prefix = ScratchPrefix();
  const std::string gen_prefix = prefix + "_g";
  const FlagCase cases[] = {
      {{"build", "/nonexistent/a.nt", "/nonexistent/a.snap"},
       {"--format=turtle", "--threads=2", "--json"},
       {"--no-verify-checksums", "--no-dict-compress"}},
      {{"info", "/nonexistent/a.snap"},
       {"--json", "--threads=2", "--mmap", "--no-verify-checksums"},
       {"--no-dict-compress"}},
      {{"align", "/nonexistent/a", "/nonexistent/b"},
       {"--method=trivial", "--threads=2", "--mmap", "--json",
        "--no-verify-checksums"},
       {"--no-dict-compress"}},
      {{"diff", "/nonexistent/a", "/nonexistent/b", "/nonexistent/d"},
       {"--method=deblank", "--threads=2", "--mmap", "--json",
        "--no-verify-checksums"},
       {"--seq=1", "--no-dict-compress"}},
      {{"patch", "/nonexistent/a", "/nonexistent/d", "/nonexistent/r"},
       {"--threads=2", "--mmap", "--json", "--no-verify-checksums"},
       {"--method=hybrid", "--no-dict-compress"}},
      {{"archive", "/nonexistent/o", "/nonexistent/a", "/nonexistent/b"},
       {"--method=overlap", "--threads=2", "--mmap", "--json",
        "--no-verify-checksums"},
       {"--seq=1", "--no-dict-compress"}},
      {{"gen", gen_prefix, "--scale=0.01", "--versions=1"},
       {"--scale=0.01", "--versions=1", "--seed=3", "--json"},
       {"--no-verify-checksums"}},
      {{"cache", "stats"}, {"--json"}, {"--no-verify-checksums"}},
      {{"updates", "/nonexistent/a", "/nonexistent/b", "/nonexistent/u"},
       {"--seq=4", "--threads=2", "--mmap", "--json",
        "--no-verify-checksums"},
       {"--method=deblank", "--no-dict-compress"}},
      {{"stats"}, {"--json"}, {"--threads=1"}},
  };
  for (const FlagCase& c : cases) {
    const std::string& verb = c.verb_and_positionals[0];
    for (const std::string& flag : c.accepted) {
      std::vector<std::string> tokens = c.verb_and_positionals;
      tokens.push_back(flag);
      const ClientResponse resp = Call(tokens);
      EXPECT_NE(resp.exit_code, 2) << verb << " " << flag << ": "
                                   << resp.error;
      EXPECT_FALSE(resp.usage_error) << verb << " " << flag;
    }
    for (const std::string& flag : c.rejected) {
      std::vector<std::string> tokens = c.verb_and_positionals;
      tokens.push_back(flag);
      const ClientResponse resp = Call(tokens);
      EXPECT_EQ(resp.exit_code, 2) << verb << " " << flag;
      EXPECT_TRUE(resp.usage_error) << verb << " " << flag;
      const std::string name = flag.substr(2, flag.find('=') - 2);
      EXPECT_EQ(resp.error, "rdfalign: unknown flag --" + name) << verb;
    }
  }
  std::remove((gen_prefix + "1.nt").c_str());
}

// With two bad flags on one command line, the first reported error is
// pinned: per-verb checks and the common flags run in a fixed order.
TEST_F(VerbsGoldenDaemonTest, FirstReportedFlagError) {
  struct Case {
    std::vector<std::string> tokens;
    bool usage;
    std::string error;
  };
  const Case cases[] = {
      {{"align", "a", "b", "--method=wat", "--threads=zomg"},
       false,
       "rdfalign align: InvalidArgument: unknown alignment method: wat"},
      {{"build", "a", "b", "--format=xml", "--threads=zomg"},
       false,
       "rdfalign: --threads expects an integer, got 'zomg'"},
      {{"build", "a", "b", "--format=xml", "--threads=-1"},
       false,
       "rdfalign build: --threads must be in [0, 4096]"},
      {{"diff", "a", "b", "c", "--method=wat", "--threads=zomg"},
       false,
       "rdfalign diff: InvalidArgument: unknown alignment method: wat"},
      {{"archive", "o", "a", "--method=wat", "--threads=zomg"},
       false,
       "rdfalign archive: InvalidArgument: unknown alignment method: wat"},
      {{"updates", "a", "b", "c", "--seq=-1", "--threads=zomg"},
       false,
       "rdfalign updates: --seq must be >= 0"},
      {{"updates", "a", "b", "c", "--seq=x", "--threads=zomg"},
       false,
       "rdfalign: --seq expects an integer, got 'x'"},
      {{"patch", "a", "d", "r", "--threads=99999"},
       false,
       "rdfalign patch: --threads must be in [0, 4096]"},
      {{"info", "a", "--threads=q"},
       false,
       "rdfalign: --threads expects an integer, got 'q'"},
      {{"gen", "x", "--versions=0", "--scale=0", "--seed=-1"},
       false,
       "rdfalign gen: --versions must be in [1, 1000]"},
      {{"gen", "x", "--versions=q", "--seed=-1"},
       false,
       "rdfalign: --versions expects an integer, got 'q'"},
      {{"gen", "x", "--scale=0", "--seed=-1"},
       false,
       "rdfalign gen: --scale must be in (0, 1e6]"},
      {{"gen", "x", "--scale=2e6", "--seed=abc"},
       false,
       "rdfalign gen: --scale must be in (0, 1e6]"},
      {{"gen", "x", "--seed=abc"},
       false,
       "rdfalign: --seed expects an integer, got 'abc'"},
      {{"cache", "frob", "--threads=1"},
       true,
       "rdfalign: unknown flag --threads"},
      {{"cache", "frob"},
       false,
       "rdfalign cache: unknown action 'frob' (expected stats or clear)"},
      {{"align", "only-one", "--bogus"}, true, ""},
      {{"align", "a", "b", "--bogus", "--method=wat"},
       true,
       "rdfalign: unknown flag --bogus"},
      {{"stats", "extra"}, true, ""},
      {{"frobnicate", "--json"}, true, "rdfalign: unknown command 'frobnicate'"},
  };
  for (const Case& c : cases) {
    const ClientResponse resp = Call(c.tokens);
    EXPECT_EQ(resp.exit_code, 2) << c.error;
    EXPECT_EQ(resp.usage_error, c.usage) << c.error;
    EXPECT_EQ(resp.error, c.error);
  }
}

// --------------------------------------------------------- daemon bodies

/// One raw protocol connection, so the envelope is seen byte for byte.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConn() { ::close(fd_); }

  /// Sends one request (plus an optional payload frame); returns
  /// {envelope, body}.
  std::pair<std::string, std::string> Call(
      const std::vector<std::string>& tokens,
      const std::string* payload = nullptr) {
    EXPECT_TRUE(WriteFrame(fd_, EncodeRequest(tokens)).ok());
    if (payload != nullptr) {
      EXPECT_TRUE(WriteFrame(fd_, *payload).ok());
    }
    std::string envelope, body;
    EXPECT_TRUE(ReadFrame(fd_, &envelope).ok());
    EXPECT_TRUE(ReadFrame(fd_, &body).ok());
    return {envelope, body};
  }

 private:
  int fd_ = -1;
};

/// Makes a body comparable across runs and machines: timing values become
/// "T", the scratch prefix "<P>", the session token "st-X".
std::string Scrub(const std::string& body, const std::string& prefix) {
  std::string out = std::regex_replace(
      body, std::regex("(\"[a-z0-9_]*_ms\"): [0-9.]+"), "$1: T");
  out = std::regex_replace(out, std::regex("st-[0-9a-f]+"), "st-X");
  for (size_t at = out.find(prefix); at != std::string::npos;
       at = out.find(prefix, at)) {
    out.replace(at, prefix.size(), "<P>");
  }
  return out;
}

TEST_F(VerbsGoldenDaemonTest, StreamSessionStatsAndEnvelopes) {
  const std::string prefix = ScratchPrefix();
  ASSERT_EQ(Call({"gen", prefix, "--scale=0.01", "--versions=3", "--seed=2"})
                .exit_code,
            0);
  for (const char* n : {"1", "2", "3"}) {
    ASSERT_EQ(Call({"build", prefix + n + ".nt", prefix + n + ".snap"})
                  .exit_code,
              0);
  }
  const std::string v1 = prefix + "1.snap";
  const std::string u1 = prefix + "_1.rdfu";
  const std::string u2 = prefix + "_2.rdfu";
  ASSERT_EQ(Call({"updates", v1, prefix + "2.snap", u1, "--seq=1"}).exit_code,
            0);
  ASSERT_EQ(Call({"updates", prefix + "2.snap", prefix + "3.snap", u2,
                  "--seq=2"})
                .exit_code,
            0);
  Result<std::string> frag1 = store::ReadFileBytes(u1);
  Result<std::string> frag2 = store::ReadFileBytes(u2);
  ASSERT_TRUE(frag1.ok() && frag2.ok());

  RawConn conn(server_->port());
  std::map<std::string, std::pair<std::string, std::string>> got;
  got["stray_push"] = conn.Call({"stream", "push", "--json"}, &*frag1);
  got["open"] = conn.Call({"stream", "open", v1, v1, "--json"});
  got["push1"] = conn.Call({"stream", "push", "--json"}, &*frag1);
  got["push2"] = conn.Call({"stream", "push", "--json"}, &*frag2);
  got["check"] = conn.Call({"stream", "check", prefix + "3.snap", "--json"});
  got["stream_stats"] = conn.Call({"stream", "stats", "--json"});
  got["close"] = conn.Call({"stream", "close", "--json"});
  got["info"] = conn.Call({"info", v1, "--json"});
  got["usage"] = conn.Call({"stats", "--frob"});
  got["stats"] = conn.Call({"stats", "--json"});

  const std::map<std::string, std::pair<std::string, std::string>> want = {
      {"check",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"stream\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 2,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"stream\": \"check\",\n"
        "  \"equivalent\": true,\n"
        "  \"live_nodes\": 385,\n"
        "  \"classes\": 211\n"
        "}\n"}},
      {"close",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"stream\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 0,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"stream\": \"close\",\n"
        "  \"fragments\": 2,\n"
        "  \"pairs_added_total\": 0,\n"
        "  \"pairs_removed_total\": 1\n"
        "}\n"}},
      {"info",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"info\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 1,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"path\": \"<P>1.snap\",\n"
        "  \"version\": 2,\n"
        "  \"nodes\": 175,\n"
        "  \"triples\": 290,\n"
        "  \"terms\": 175,\n"
        "  \"fingerprint\": \"331c4f22e554a0e0\",\n"
        "  \"file_bytes\": 17396,\n"
        "  \"sections\": [\n"
        "    {\"name\": \"term_offsets\", \"offset\": 384, \"bytes\": 1408, "
        "\"checksum\": \"5326d321b3e576f0\"},\n"
        "    {\"name\": \"term_blob\", \"offset\": 1792, \"bytes\": 3470, "
        "\"checksum\": \"b3f93bd32be3039b\"},\n"
        "    {\"name\": \"node_kinds\", \"offset\": 5264, \"bytes\": 175, "
        "\"checksum\": \"d901cad40e089b29\"},\n"
        "    {\"name\": \"node_lex\", \"offset\": 5440, \"bytes\": 700, "
        "\"checksum\": \"20e3428f454a0503\"},\n"
        "    {\"name\": \"triples\", \"offset\": 6144, \"bytes\": 3480, "
        "\"checksum\": \"f4c2eb4849fcdbca\"},\n"
        "    {\"name\": \"out_offsets\", \"offset\": 9624, \"bytes\": 1408, "
        "\"checksum\": \"c0f55f2d43a921cd\"},\n"
        "    {\"name\": \"out_pairs\", \"offset\": 11032, \"bytes\": 2320, "
        "\"checksum\": \"352d7429cc4232eb\"},\n"
        "    {\"name\": \"in_offsets\", \"offset\": 13352, \"bytes\": 1408, "
        "\"checksum\": \"acb2208f2854a8ff\"},\n"
        "    {\"name\": \"in_subjects\", \"offset\": 14760, \"bytes\": 1936, "
        "\"checksum\": \"70975b04b299e053\"},\n"
        "    {\"name\": \"term_prefix_lens\", \"offset\": 16696, \"bytes\": "
        "700, \"checksum\": \"9e6af064c396b649\"}\n"
        "  ]\n"
        "}\n"}},
      {"open",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"stream\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 2,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"stream\": \"open\",\n"
        "  \"session\": \"st-X\",\n"
        "  \"source\": \"<P>1.snap\",\n"
        "  \"target\": \"<P>1.snap\",\n"
        "  \"method\": \"deblank\",\n"
        "  \"threads\": 1,\n"
        "  \"source_nodes\": 175,\n"
        "  \"live_nodes\": 350,\n"
        "  \"target_triples\": 290,\n"
        "  \"iterations\": 1,\n"
        "  \"classes\": 175,\n"
        "  \"pairs\": 175\n"
        "}\n"}},
      {"push1",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"stream\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 0,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"stream\": \"push\",\n"
        "  \"sequence\": 1,\n"
        "  \"applied_adds\": 31,\n"
        "  \"ignored_adds\": 0,\n"
        "  \"applied_removes\": 1,\n"
        "  \"ignored_removes\": 0,\n"
        "  \"new_nodes\": 18,\n"
        "  \"removed_nodes\": 1,\n"
        "  \"refined\": false,\n"
        "  \"iterations\": 0,\n"
        "  \"dirty_total\": 0,\n"
        "  \"removed_pairs\": [\n"
        "    {\"src\": \"Karaclet tian\", \"src_kind\": \"literal\", "
        "\"tgt\": \"Karaclet tian\", \"tgt_kind\": \"literal\"}\n"
        "  ],\n"
        "  \"added_pairs\": [\n"
        "  ],\n"
        "  \"apply_ms\": T,\n"
        "  \"refine_ms\": T,\n"
        "  \"delta_ms\": T\n"
        "}\n"}},
      {"push2",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"stream\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 0,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"stream\": \"push\",\n"
        "  \"sequence\": 2,\n"
        "  \"applied_adds\": 34,\n"
        "  \"ignored_adds\": 0,\n"
        "  \"applied_removes\": 0,\n"
        "  \"ignored_removes\": 0,\n"
        "  \"new_nodes\": 18,\n"
        "  \"removed_nodes\": 0,\n"
        "  \"refined\": false,\n"
        "  \"iterations\": 0,\n"
        "  \"dirty_total\": 0,\n"
        "  \"removed_pairs\": [\n"
        "  ],\n"
        "  \"added_pairs\": [\n"
        "  ],\n"
        "  \"apply_ms\": T,\n"
        "  \"refine_ms\": T,\n"
        "  \"delta_ms\": T\n"
        "}\n"}},
      {"stats",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"stats\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 0,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"total_requests\": 15,\n"
        "  \"total_errors\": 2,\n"
        "  \"transport\": {\"accept_retries\": 0, \"load_shed\": 0, "
        "\"io_timeouts\": 0, \"protocol_errors\": 0, \"sessions_parked\": 0, "
        "\"sessions_resumed\": 0, \"sessions_expired\": 0},\n"
        "  \"verbs\": [\n"
        "    {\"verb\": \"build\", \"requests\": 3, \"errors\": 0, "
        "\"samples\": 3, \"p50_ms\": T, \"p95_ms\": T, \"p99_ms\": T, "
        "\"max_ms\": T},\n"
        "    {\"verb\": \"gen\", \"requests\": 1, \"errors\": 0, "
        "\"samples\": 1, \"p50_ms\": T, \"p95_ms\": T, \"p99_ms\": T, "
        "\"max_ms\": T},\n"
        "    {\"verb\": \"info\", \"requests\": 1, \"errors\": 0, "
        "\"samples\": 1, \"p50_ms\": T, \"p95_ms\": T, \"p99_ms\": T, "
        "\"max_ms\": T},\n"
        "    {\"verb\": \"stats\", \"requests\": 1, \"errors\": 1, "
        "\"samples\": 1, \"p50_ms\": T, \"p95_ms\": T, \"p99_ms\": T, "
        "\"max_ms\": T},\n"
        "    {\"verb\": \"stream\", \"requests\": 7, \"errors\": 1, "
        "\"samples\": 7, \"p50_ms\": T, \"p95_ms\": T, \"p99_ms\": T, "
        "\"max_ms\": T},\n"
        "    {\"verb\": \"updates\", \"requests\": 2, \"errors\": 0, "
        "\"samples\": 2, \"p50_ms\": T, \"p95_ms\": T, \"p99_ms\": T, "
        "\"max_ms\": T}\n"
        "  ]\n"
        "}\n"}},
      {"stream_stats",
       {"{\n"
        "  \"ok\": true,\n"
        "  \"verb\": \"stream\",\n"
        "  \"exit_code\": 0,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 0,\n"
        "  \"cache_misses\": 0\n"
        "}\n",
        "{\n"
        "  \"stream\": \"stats\",\n"
        "  \"source\": \"<P>1.snap\",\n"
        "  \"target\": \"<P>1.snap\",\n"
        "  \"method\": \"deblank\",\n"
        "  \"fragments\": 2,\n"
        "  \"live_nodes\": 385,\n"
        "  \"target_triples\": 354,\n"
        "  \"colors_allocated\": 211,\n"
        "  \"pairs_added_total\": 0,\n"
        "  \"pairs_removed_total\": 1\n"
        "}\n"}},
      {"usage",
       {"{\n"
        "  \"ok\": false,\n"
        "  \"verb\": \"stats\",\n"
        "  \"exit_code\": 2,\n"
        "  \"usage_error\": true,\n"
        "  \"cache_hits\": 0,\n"
        "  \"cache_misses\": 0,\n"
        "  \"error\": \"rdfalign: unknown flag --frob\"\n"
        "}\n",
        ""}},
      {"stray_push",
       {"{\n"
        "  \"ok\": false,\n"
        "  \"verb\": \"stream\",\n"
        "  \"exit_code\": 1,\n"
        "  \"usage_error\": false,\n"
        "  \"cache_hits\": 0,\n"
        "  \"cache_misses\": 0,\n"
        "  \"error\": \"rdfalign stream: no open session on this connection "
        "(run `stream open` first)\"\n"
        "}\n",
        ""}},
  };
  for (const auto& [name, pair] : got) {
    const std::string envelope = Scrub(pair.first, prefix);
    const std::string body = Scrub(pair.second, prefix);
    auto it = want.find(name);
    if (it == want.end()) {
      ADD_FAILURE() << "unpinned " << name << "\nENVELOPE<<<" << envelope
                    << ">>>\nBODY<<<" << body << ">>>";
      continue;
    }
    EXPECT_EQ(envelope, it->second.first) << name;
    EXPECT_EQ(body, it->second.second) << name;
  }

  for (const char* n : {"1", "2", "3"}) {
    std::remove((prefix + n + ".nt").c_str());
    std::remove((prefix + n + ".snap").c_str());
  }
  std::remove(u1.c_str());
  std::remove(u2.c_str());
}

// push, stats and close take no positional argument: a stray one is a
// usage error with an arity message, and a stray flag is reported as
// such. Neither closes the session.
TEST(VerbsGoldenTest, StreamNoArgumentSubcommandErrors) {
  struct Case {
    std::vector<std::string> tokens;
    std::string error;
  };
  const Case cases[] = {
      {{"stream", "push", "extra"}, "rdfalign stream: push takes no arguments"},
      {{"stream", "stats", "extra", "--json"},
       "rdfalign stream: stats takes no arguments"},
      {{"stream", "close", "a", "b"},
       "rdfalign stream: close takes no arguments"},
      {{"stream", "close", "--frob"}, "rdfalign: unknown flag --frob"},
  };
  for (const Case& c : cases) {
    // An open session; the argument check runs before the aligner is used.
    auto session = std::make_unique<StreamSession>();
    const VerbResult r =
        HandleStreamVerb(c.tokens, "", &session, nullptr, nullptr);
    EXPECT_EQ(r.exit_code, 2) << c.error;
    EXPECT_TRUE(r.usage_error) << c.error;
    EXPECT_EQ(r.error, c.error);
    EXPECT_NE(session, nullptr) << c.error;
  }
}

}  // namespace
}  // namespace rdfalign::service
