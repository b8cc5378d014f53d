// The benches' harness (bench/harness.h). Its flag reader is strict:
// well-formed values parse, absent flags fall back, and malformed or
// negative numbers are usage errors (message on stderr, exit 2) rather
// than a silent 0 or a count wrapped to ~2^64. Its Report writes a JSON
// record only when every gate passed, Time runs exactly what it is asked
// to, and a ScratchDir leaves nothing behind.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "service/json.h"
#include "store/update_fragment.h"

namespace rdfalign {
namespace {

/// Builds a Flags over `args` behind a placeholder program name. Flags
/// copies the tokens, so argv need not outlive the call.
bench::Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return bench::Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlagsTest, ParsesWellFormedValuesAndFallsBack) {
  bench::Flags flags =
      MakeFlags({"--runs=7", "--scale=0.25", "--out=x.json", "positional"});
  EXPECT_EQ(flags.GetInt("runs", 3), 7u);
  EXPECT_EQ(flags.GetInt("seed", 5), 5u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("theta", 0.65), 0.65);
  EXPECT_EQ(flags.GetString("out", "default.json"), "x.json");
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
}

using BenchFlagsDeathTest = ::testing::Test;

TEST_F(BenchFlagsDeathTest, RejectsMalformedAndNegativeNumbers) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(MakeFlags({"--runs=abc"}).GetInt("runs", 3),
              ::testing::ExitedWithCode(2),
              "--runs expects an integer, got 'abc'");
  EXPECT_EXIT(MakeFlags({"--runs=-1"}).GetInt("runs", 3),
              ::testing::ExitedWithCode(2), "--runs must be >= 0, got '-1'");
  EXPECT_EXIT(MakeFlags({"--runs=3x"}).GetInt("runs", 3),
              ::testing::ExitedWithCode(2),
              "--runs expects an integer, got '3x'");
  EXPECT_EXIT(MakeFlags({"--runs="}).GetInt("runs", 3),
              ::testing::ExitedWithCode(2),
              "--runs expects an integer, got ''");
  EXPECT_EXIT(MakeFlags({"--scale=big"}).GetDouble("scale", 1.0),
              ::testing::ExitedWithCode(2),
              "--scale expects a number, got 'big'");
  EXPECT_EXIT(MakeFlags({"--scale=-0.5"}).GetDouble("scale", 1.0),
              ::testing::ExitedWithCode(2),
              "--scale must be >= 0, got '-0.5'");
  EXPECT_EXIT(MakeFlags({"--scale=nan"}).GetDouble("scale", 1.0),
              ::testing::ExitedWithCode(2),
              "--scale must be >= 0, got 'nan'");
}

bench::Report MakeReport() {
  bench::Report report("unit", {"points", "empty"}, "test record");
  report.params().Num("scale", 0.25).Int("seed", 5);
  report.Add("points", bench::Row()
                           .Num("scale_point", 0.0125, "scale")
                           .Int("nodes", 42, "nodes")
                           .Num("load_ms", 1.5, 2)
                           .Rows("sweep", {bench::Row().Int("threads", 1)})
                           .Bool("equal", true, "equal"));
  return report;
}

TEST(BenchReportTest, FailedGateWritesNothing) {
  const bench::ScratchDir scratch("rdfalign_report_test");
  const std::string path = scratch.Path("out.json");
  bench::Report report = MakeReport();
  EXPECT_TRUE(report.Gate(true, "first gate"));
  EXPECT_FALSE(report.Gate(false, "second gate"));
  EXPECT_TRUE(report.Gate(true, "third gate"));
  EXPECT_EQ(report.Finish(path), 1);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(BenchReportTest, PassedGatesWriteTheHeaderAndRows) {
  const bench::ScratchDir scratch("rdfalign_report_test");
  const std::string path = scratch.Path("out.json");
  bench::Report report = MakeReport();
  report.Gate(true, "only gate");
  ASSERT_EQ(report.Finish(path), 0);
  Result<std::string> body = store::ReadFileBytes(path);
  ASSERT_TRUE(body.ok());
  using service::JsonFindInt;
  using service::JsonFindString;
  EXPECT_EQ(JsonFindString(*body, "bench", ""), "unit");
  EXPECT_EQ(JsonFindInt(*body, "seed", -1), 5);
  EXPECT_EQ(JsonFindInt(*body, "hardware_threads", -1),
            static_cast<long long>(std::thread::hardware_concurrency()));
  EXPECT_NE(JsonFindString(*body, "compiler", ""), "");
  EXPECT_NE(JsonFindString(*body, "build_type", ""), "");
  EXPECT_EQ(JsonFindString(*body, "provenance", ""), "test record");
  EXPECT_EQ(JsonFindInt(*body, "nodes", -1), 42);
  EXPECT_NE(body->find("\"scale\": 0.25,"), std::string::npos);
  EXPECT_NE(body->find("{\"scale_point\": 0.0125, \"nodes\": 42, "
                       "\"load_ms\": 1.50, \"sweep\": [{\"threads\": 1}], "
                       "\"equal\": true}"),
            std::string::npos);
  // A declared section is written even when it holds no rows.
  EXPECT_NE(body->find("\"empty\": [\n  ]"), std::string::npos);
}

TEST(BenchTimeTest, CallsWarmupPlusRunsAndOrdersItsSummary) {
  size_t calls = 0, setups = 0;
  const bench::Timing t = bench::Time(
      7, 2, [&] { ++calls; }, [&] { ++setups; });
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(calls, 9u);
  EXPECT_EQ(setups, 9u);
  EXPECT_EQ(t.samples_ms.size(), 7u);
  EXPECT_LE(t.min_ms, t.p50_ms);
  EXPECT_LE(t.p50_ms, t.p95_ms);
  EXPECT_LE(t.p95_ms, t.max_ms);
}

TEST(BenchTimeTest, StopsAtTheFirstFailure) {
  size_t calls = 0;
  const bench::Timing t = bench::Time(5, 1, [&] { return ++calls < 3; });
  EXPECT_FALSE(t.ok);
  EXPECT_EQ(calls, 3u);
}

TEST(BenchScratchDirTest, IsGoneAfterItsScope) {
  std::filesystem::path dir;
  {
    const bench::ScratchDir scratch("rdfalign_scratch_test");
    dir = scratch.dir();
    ASSERT_TRUE(std::filesystem::is_directory(dir));
    std::filesystem::create_directories(dir / "nested");
    std::ofstream(scratch.Path("nested/f.bin")) << "x";
    ASSERT_TRUE(std::filesystem::exists(dir / "nested" / "f.bin"));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace rdfalign
