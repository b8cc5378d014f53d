// The benches' flag reader (bench/harness.h) is strict: well-formed values
// parse, absent flags fall back, and malformed or negative numbers are
// usage errors (message on stderr, exit 2) rather than a silent 0 or a
// count wrapped to ~2^64.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"

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

}  // namespace
}  // namespace rdfalign
