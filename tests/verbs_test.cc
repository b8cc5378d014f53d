// Verb-layer coverage: ExecuteVerb drives every verb in-process (no
// subprocess, no socket) against both graph sources, pinning
//
//   * the exit-code policy (usage/flag errors -> 2, patch base mismatch
//     -> 2, run failures -> 1),
//   * the exact legacy flag-error messages (the exit-2 contract that
//     cli-smoke greps for),
//   * JSON report fields, and
//   * CLI/daemon parity: the same command renders the same body whether
//     graphs come from DirectGraphSource or a SnapshotCache.

#include "service/verbs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "service/graph_source.h"
#include "service/snapshot_cache.h"
#include "service/stream_verbs.h"
#include "store/snapshot.h"

namespace rdfalign::service {
namespace {

std::string ScratchPrefix() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rdfalign_verbs_" + info->name();
}

VerbResult RunVerb(const std::vector<std::string>& tokens,
               GraphSource* source = nullptr) {
  DirectGraphSource direct;
  return ExecuteVerb(tokens, source ? source : &direct);
}

/// Drops the volatile (timing) report lines so two runs compare equal.
std::string ScrubTimings(const std::string& body) {
  static const std::regex volatile_line(
      "[^\n]*(_ms\"|seconds\"|loaded in |phases \\(ms\\)|parse |"
      "align time)[^\n]*\n");
  return std::regex_replace(body, volatile_line, "");
}

/// gen + build two snapshot versions under `prefix`; returns their paths.
std::pair<std::string, std::string> MakeVersionPair(
    const std::string& prefix) {
  VerbResult gen =
      RunVerb({"gen", prefix, "--scale=0.02", "--versions=2", "--seed=9"});
  EXPECT_EQ(gen.exit_code, 0) << gen.error;
  const std::string v1 = prefix + "1.snap";
  const std::string v2 = prefix + "2.snap";
  EXPECT_EQ(RunVerb({"build", prefix + "1.nt", v1}).exit_code, 0);
  EXPECT_EQ(RunVerb({"build", prefix + "2.nt", v2}).exit_code, 0);
  return {v1, v2};
}

void RemoveChain(const std::string& prefix) {
  for (const char* suffix : {"1.nt", "2.nt", "1.snap", "2.snap"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(VerbsTest, FullPipelineThroughExecuteVerb) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  const std::string delta = prefix + ".delta";
  const std::string replayed = prefix + "_replay.snap";
  const std::string archive = prefix + ".archive";

  VerbResult info = RunVerb({"info", v1, "--json"});
  EXPECT_EQ(info.exit_code, 0) << info.error;
  // The legacy snapshot JSON is kind-less; the new fingerprint field
  // rides along after "terms". Builds default to the front-coded
  // version-2 dictionary layout.
  EXPECT_NE(info.output.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(info.output.find("\"fingerprint\": \""), std::string::npos);

  VerbResult align = RunVerb({"align", v1, v2, "--method=hybrid", "--json"});
  EXPECT_EQ(align.exit_code, 0) << align.error;
  EXPECT_NE(align.output.find("\"aligned_edge_ratio\""), std::string::npos);

  VerbResult diff = RunVerb({"diff", v1, v2, delta, "--json"});
  EXPECT_EQ(diff.exit_code, 0) << diff.error;
  EXPECT_NE(diff.output.find("\"kept_triples\""), std::string::npos);
  EXPECT_NE(diff.output.find("\"delta_bytes\""), std::string::npos);

  VerbResult patch = RunVerb({"patch", v1, delta, replayed, "--json"});
  EXPECT_EQ(patch.exit_code, 0) << patch.error;

  // The replayed snapshot aligns 1:1 with the directly built v2.
  VerbResult check = RunVerb({"align", v2, replayed, "--method=trivial",
                          "--json"});
  EXPECT_EQ(check.exit_code, 0) << check.error;
  EXPECT_NE(check.output.find("\"aligned_edge_ratio\": 1.000000"),
            std::string::npos);

  VerbResult arch =
      RunVerb({"archive", archive, prefix + "1.nt", prefix + "2.nt", "--json"});
  EXPECT_EQ(arch.exit_code, 0) << arch.error;
  EXPECT_NE(arch.output.find("\"versions\": 2"), std::string::npos);
  EXPECT_NE(arch.output.find("\"compression_ratio\""), std::string::npos);

  VerbResult arch_info = RunVerb({"info", archive, "--json"});
  EXPECT_EQ(arch_info.exit_code, 0) << arch_info.error;
  EXPECT_NE(arch_info.output.find("\"kind\": \"archive\""),
            std::string::npos);
  EXPECT_NE(arch_info.output.find("\"base_fingerprint\": \""),
            std::string::npos);

  // The delta, snapshot, and archive all agree on the base fingerprint.
  VerbResult delta_info = RunVerb({"info", delta, "--json"});
  EXPECT_EQ(delta_info.exit_code, 0);
  const std::regex fp_re("\"(base_)?fingerprint\": \"([0-9a-f]{16})\"");
  std::smatch m_snap, m_delta, m_arch;
  ASSERT_TRUE(std::regex_search(info.output, m_snap, fp_re));
  ASSERT_TRUE(std::regex_search(delta_info.output, m_delta, fp_re));
  ASSERT_TRUE(std::regex_search(arch_info.output, m_arch, fp_re));
  EXPECT_EQ(m_snap[2], m_delta[2]);
  EXPECT_EQ(m_snap[2], m_arch[2]);

  RemoveChain(prefix);
  for (const std::string& p : {delta, replayed, archive}) {
    std::remove(p.c_str());
  }
}

// Literals carrying JSON-hostile bytes — control characters, quotes,
// backslashes — survive the build -> snapshot -> align pipeline, and the
// JSON bodies the verbs render around them never contain a raw control
// byte (JsonEscape's contract; see tests/json_test.cc for the unit
// cases).
TEST(VerbsTest, ControlCharacterLiteralsSurviveThePipeline) {
  const std::string prefix = ScratchPrefix();
  const std::string nt = prefix + ".nt";
  {
    std::ofstream out(nt);
    out << "<http://example.org/s> <http://example.org/p> "
           "\"ctl\\u0001mid\\u001Fquote\\\"back\\\\slash\\ttab\" .\n"
           "<http://example.org/s> <http://example.org/q> "
           "<http://example.org/o> .\n";
    ASSERT_TRUE(out.good());
  }
  const std::string snap = prefix + ".snap";
  VerbResult build = RunVerb({"build", nt, snap});
  ASSERT_EQ(build.exit_code, 0) << build.error;

  VerbResult info = RunVerb({"info", snap, "--json"});
  ASSERT_EQ(info.exit_code, 0) << info.error;
  VerbResult align = RunVerb({"align", snap, snap, "--method=trivial",
                              "--json"});
  ASSERT_EQ(align.exit_code, 0) << align.error;
  EXPECT_NE(align.output.find("\"aligned_edge_ratio\": 1.000000"),
            std::string::npos);
  for (const std::string& body : {info.output, align.output}) {
    for (char c : body) {
      const auto byte = static_cast<unsigned char>(c);
      EXPECT_TRUE(byte >= 0x20 || c == '\n')
          << "raw control byte " << static_cast<int>(byte)
          << " in a JSON body";
    }
  }
  std::remove(nt.c_str());
  std::remove(snap.c_str());
}

TEST(VerbsTest, ExactFlagErrorMessages) {
  struct Case {
    std::vector<std::string> tokens;
    std::string want_error;
  };
  const Case cases[] = {
      {{"align", "a", "b", "--threads=zomg"},
       "rdfalign: --threads expects an integer, got 'zomg'"},
      // Out-of-long-long-range values must report the same integer
      // message (strtoll's ERANGE path), not clamp or wrap.
      {{"align", "a", "b", "--threads=99999999999999999999"},
       "rdfalign: --threads expects an integer, got "
       "'99999999999999999999'"},
      {{"align", "a", "b", "--threads=9999"},
       "rdfalign align: --threads must be in [0, 4096]"},
      {{"align", "a", "b", "--bogus=1"}, "rdfalign: unknown flag --bogus"},
      {{"align", "a", "b", "--method=wat"},
       "rdfalign align: InvalidArgument: unknown alignment method: wat"},
      {{"build", "a", "b", "--format=xml"},
       "rdfalign: unknown --format=xml"},
      {{"gen", "x", "--versions=0"},
       "rdfalign gen: --versions must be in [1, 1000]"},
      {{"gen", "x", "--scale=0"},
       "rdfalign gen: --scale must be in (0, 1e6]"},
      {{"gen", "x", "--seed=-1"}, "rdfalign gen: --seed must be >= 0"},
      // --scale is a strict number: no trailing junk, no parse-as-zero.
      {{"gen", "x", "--scale=abc"},
       "rdfalign: --scale expects a number, got 'abc'"},
      {{"gen", "x", "--scale=0.01junk"},
       "rdfalign: --scale expects a number, got '0.01junk'"},
  };
  for (const Case& c : cases) {
    const VerbResult result = RunVerb(c.tokens);
    EXPECT_EQ(result.exit_code, 2) << c.want_error;
    EXPECT_EQ(result.error, c.want_error);
  }
}

// How a snapshot is read belongs to the graph source, not the request:
// --mmap and --no-verify-checksums are unknown flags on every verb that
// loads graphs, stream open and stream check included.
TEST(VerbsTest, LoadModeFlagsAreUnknown) {
  const std::vector<std::vector<std::string>> loads = {
      {"info", "a"},           {"align", "a", "b"},
      {"diff", "a", "b", "d"}, {"patch", "a", "d", "r"},
      {"archive", "o", "a", "b"}, {"updates", "a", "b", "u"}};
  for (const std::string flag : {"mmap", "no-verify-checksums"}) {
    const std::string want = "rdfalign: unknown flag --" + flag;
    for (std::vector<std::string> tokens : loads) {
      tokens.push_back("--" + flag);
      const VerbResult result = RunVerb(tokens);
      EXPECT_EQ(result.exit_code, 2) << tokens[0] << " --" << flag;
      EXPECT_EQ(result.error, want) << tokens[0];
    }
    for (const bool check : {false, true}) {
      std::vector<std::string> tokens = {"stream", "open", "a", "b"};
      if (check) tokens = {"stream", "check", "a"};
      tokens.push_back("--" + flag);
      auto session = check ? std::make_unique<StreamSession>() : nullptr;
      const VerbResult r =
          HandleStreamVerb(tokens, "", &session, nullptr, nullptr);
      EXPECT_EQ(r.exit_code, 2) << tokens[1] << " --" << flag;
      EXPECT_TRUE(r.usage_error) << tokens[1] << " --" << flag;
      EXPECT_EQ(r.error, want) << tokens[1];
    }
  }
}

// Paths are user data: every --json body escapes them (and every other
// string), so a path holding a quote or a backslash still yields valid
// JSON. Text output prints them verbatim.
TEST(VerbsTest, JsonBodiesEscapePaths) {
  const std::string prefix = ScratchPrefix() + "q\"x\\y_";
  const std::string escaped = "q\\\"x\\\\y_";
  VerbResult gen = RunVerb({"gen", prefix, "--scale=0.01", "--versions=2",
                            "--json"});
  ASSERT_EQ(gen.exit_code, 0) << gen.error;
  const std::string v1 = prefix + "1.snap";
  const std::string v2 = prefix + "2.snap";
  const std::string delta = prefix + ".delta";
  const std::vector<VerbResult> bodies = {
      gen,
      RunVerb({"build", prefix + "1.nt", v1, "--json"}),
      RunVerb({"build", prefix + "2.nt", v2, "--json"}),
      RunVerb({"info", v1, "--json"}),
      RunVerb({"align", v1, v2, "--json"}),
      RunVerb({"diff", v1, v2, delta, "--json"})};
  for (const VerbResult& r : bodies) {
    EXPECT_EQ(r.exit_code, 0) << r.verb << ": " << r.error;
    EXPECT_NE(r.output.find(escaped), std::string::npos)
        << r.verb << ": " << r.output;
    EXPECT_EQ(r.output.find("q\"x"), std::string::npos) << r.output;
  }
  VerbResult text = RunVerb({"info", v1});
  EXPECT_NE(text.output.find(prefix), std::string::npos) << text.output;
  RemoveChain(prefix);
  std::remove(delta.c_str());
}

TEST(VerbsTest, UsageErrorsShowSynopsis) {
  for (const std::vector<std::string>& tokens :
       {std::vector<std::string>{}, {"frobnicate"}, {"align", "only-one"},
        {"build"}, {"diff", "a", "b"}, {"patch", "a"}, {"archive", "out"},
        {"client"}}) {
    const VerbResult result = RunVerb(tokens);
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_TRUE(result.usage_error);
  }
  const VerbResult unknown = RunVerb({"frobnicate"});
  EXPECT_EQ(unknown.error, "rdfalign: unknown command 'frobnicate'");
  EXPECT_NE(std::string(UsageText()).find("usage: rdfalign <command>"),
            std::string::npos);
}

TEST(VerbsTest, RunFailuresExitOneWithPrefixedStatus) {
  const VerbResult missing = RunVerb({"align", "/nonexistent/a", "/b"});
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_FALSE(missing.usage_error);
  EXPECT_EQ(missing.error.rfind("rdfalign align: ", 0), 0u) << missing.error;

  const VerbResult info = RunVerb({"info", "/nonexistent/x"});
  EXPECT_EQ(info.exit_code, 1);
  EXPECT_EQ(info.error.rfind("rdfalign info: ", 0), 0u);
}

// The text listing loads the snapshot as the JSON report does, so a
// snapshot that fails its checksums fails either report, from either
// graph source.
TEST(VerbsTest, InfoRefusesACorruptSnapshotInEitherReport) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  Result<store::SnapshotInfo> info = store::ReadSnapshotInfo(v1);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const store::SnapshotSectionInfo& blob = info->sections[1];
  ASSERT_EQ(blob.id, store::SectionId::kTermBlob);
  ASSERT_GT(blob.size, 0u);
  {
    // Raise the last term's last byte, checksums left as they are.
    std::fstream file(v1, std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(blob.offset + blob.size - 1);
    char byte = 0;
    file.seekg(at);
    file.get(byte);
    file.seekp(at);
    file.put(static_cast<char>(byte + 1));
    ASSERT_TRUE(file.good());
  }
  SnapshotCache cache;
  DirectGraphSource direct;
  for (GraphSource* source : {static_cast<GraphSource*>(&direct),
                              static_cast<GraphSource*>(&cache)}) {
    for (const bool json : {false, true}) {
      std::vector<std::string> tokens = {"info", v1};
      if (json) tokens.push_back("--json");
      const VerbResult r = RunVerb(tokens, source);
      EXPECT_EQ(r.exit_code, 1) << "json " << json;
      EXPECT_NE(r.error.find("checksum mismatch"), std::string::npos)
          << r.error;
    }
  }
  RemoveChain(prefix);
}

TEST(VerbsTest, WrongBasePatchIsUsageExitTwo) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  const std::string delta = prefix + ".delta";
  ASSERT_EQ(RunVerb({"diff", v1, v2, delta}).exit_code, 0);

  // Patching the wrong base is exit 2 (InvalidArgument), not 1.
  const VerbResult bad =
      RunVerb({"patch", v2, delta, prefix + "_bad.snap"});
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.error.find("delta does not apply"), std::string::npos);

  RemoveChain(prefix);
  std::remove(delta.c_str());
}

TEST(VerbsTest, CacheVerbNeedsACacheSource) {
  const VerbResult no_cache = RunVerb({"cache", "stats"});
  EXPECT_EQ(no_cache.exit_code, 1);
  EXPECT_NE(no_cache.error.find("needs rdfalignd"), std::string::npos);

  const VerbResult bad_action = RunVerb({"cache", "frob"});
  EXPECT_EQ(bad_action.exit_code, 2);

  SnapshotCache cache;
  VerbResult stats = ExecuteVerb({"cache", "stats", "--json"}, &cache);
  EXPECT_EQ(stats.exit_code, 0) << stats.error;
  EXPECT_NE(stats.output.find("\"entries\": 0"), std::string::npos);
}

TEST(VerbsTest, CachedSourceRendersIdenticalBodies) {
  const std::string prefix = ScratchPrefix();
  const auto [v1, v2] = MakeVersionPair(prefix);
  SnapshotCache cache;
  DirectGraphSource direct;

  for (const std::vector<std::string>& tokens :
       {std::vector<std::string>{"info", v1, "--json"},
        {"align", v1, v2, "--method=hybrid", "--json"},
        {"align", v1, v2, "--method=trivial"},
        {"diff", v1, v2, prefix + "_c.delta", "--json"}}) {
    const VerbResult via_direct = ExecuteVerb(tokens, &direct);
    const VerbResult via_cache = ExecuteVerb(tokens, &cache);
    ASSERT_EQ(via_direct.exit_code, 0) << via_direct.error;
    ASSERT_EQ(via_cache.exit_code, 0) << via_cache.error;
    EXPECT_EQ(ScrubTimings(via_direct.output),
              ScrubTimings(via_cache.output))
        << tokens[0];
  }
  // The cached runs above hit the same two snapshots repeatedly.
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Repeating a cached align is bit-identical to its own first run
  // modulo timings, and reports the hits in the verb result.
  const std::vector<std::string> again{"align", v1, v2, "--json"};
  const VerbResult first = ExecuteVerb(again, &cache);
  const VerbResult second = ExecuteVerb(again, &cache);
  EXPECT_EQ(ScrubTimings(first.output), ScrubTimings(second.output));
  EXPECT_EQ(second.cache_hits, 2u);
  EXPECT_EQ(second.cache_misses, 0u);

  RemoveChain(prefix);
  std::remove((prefix + "_c.delta").c_str());
}

TEST(VerbsTest, GenReportsPartialFilesOnFailure) {
  // An unwritable prefix fails on the first version: no files listed.
  const VerbResult bad = RunVerb({"gen", "/nonexistent-dir/x", "--scale=0.01"});
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_EQ(bad.output.find("wrote"), std::string::npos);
}

}  // namespace
}  // namespace rdfalign::service
