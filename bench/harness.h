// Shared harness for the figure-reproduction benches: fixed-width table
// printing in the shape of the paper's tables/series, plus a tiny flag
// parser (--scale=, --seed=, --theta=) so every experiment can be re-run at
// other sizes.

#ifndef RDFALIGN_BENCH_HARNESS_H_
#define RDFALIGN_BENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "service/flags.h"

namespace rdfalign::bench {

/// Reads `--name=value` flags through the verb layer's tokenizer. Numbers
/// are strict: a malformed or negative value ("--runs=abc", "--runs=-1")
/// prints a message to stderr and exits 2, the CLI's usage-error contract,
/// instead of silently becoming 0 or wrapping.
class Flags {
 public:
  Flags(int argc, char** argv) : args_(argc, argv, 1) {}

  double GetDouble(const std::string& name, double fallback) const {
    const std::optional<double> value =
        args_.GetDouble(name, fallback, nullptr);
    if (!value) Reject(name, "expects a number");
    if (!(*value >= 0)) Reject(name, "must be >= 0");
    return *value;
  }

  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    const std::optional<long long> value =
        args_.GetInt(name, static_cast<long long>(fallback), nullptr);
    if (!value) Reject(name, "expects an integer");
    if (*value < 0) Reject(name, "must be >= 0");
    return static_cast<uint64_t>(*value);
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    return args_.GetString(name, fallback);
  }

 private:
  // Prints "rdfalign: --NAME WHAT, got 'VALUE'" (service::Args::GetInt's
  // wording) and exits 2, the CLI's usage-error status.
  [[noreturn]] void Reject(const std::string& name, const char* what) const {
    std::fprintf(stderr, "rdfalign: --%s %s, got '%s'\n", name.c_str(), what,
                 args_.GetString(name, "").c_str());
    std::exit(2);
  }

  service::Args args_;
};

/// Prints the experiment banner.
inline void Banner(const char* figure, const char* description) {
  std::printf("\n=== %s ===\n%s\n\n", figure, description);
}

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns, int width = 12)
      : columns_(std::move(columns)), width_(width) {
    for (const auto& c : columns_) {
      std::printf("%*s", width_, c.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) const {
    for (const auto& c : cells) {
      std::printf("%*s", width_, c.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> columns_;
  int width_;
};

/// Prints a version-by-version matrix (the Fig. 10/11 heat-map data) with
/// row = target version, column = source version.
inline void PrintMatrix(const char* title,
                        const std::vector<std::vector<double>>& m,
                        const char* cell_format = "%8.3f") {
  std::printf("%s\n", title);
  const size_t n = m.size();
  std::printf("tgt\\src ");
  for (size_t j = 0; j < n; ++j) std::printf("%8zu", j + 1);
  std::printf("\n");
  for (size_t i = 0; i < n; ++i) {
    std::printf("%7zu ", i + 1);
    for (size_t j = 0; j < n; ++j) {
      std::printf(cell_format, m[j][i]);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

inline std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

}  // namespace rdfalign::bench

#endif  // RDFALIGN_BENCH_HARNESS_H_
