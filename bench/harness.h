// Shared harness of the benches. Every bench gets fixed-width table
// printing in the shape of the paper's tables/series and a strict flag
// parser (--scale=, --seed=, --theta=), so every experiment can be re-run
// at other sizes. The JSON benches (refinement, store, pipeline, service,
// stream) also measure through Time, record through Report and keep their
// files in a ScratchDir, so every BENCH file is timed, stamped, laid out
// and gated the same way.

#ifndef RDFALIGN_BENCH_HARNESS_H_
#define RDFALIGN_BENCH_HARNESS_H_

#include <stdlib.h>  // mkdtemp

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "service/flags.h"
#include "service/json.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/timer.h"

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

/// `num / den`, or 0 when `den` is not positive (speed-ups and rates of
/// phases too fast to time).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Moves the value of `res` into `*out`; false when `res` holds an error.
template <typename T>
bool Keep(Result<T> res, T* out) {
  if (!res.ok()) return false;
  *out = std::move(res).value();
  return true;
}

// ---------------------------------------------------------------- timing ---

/// Wall-clock samples of one measured operation, in milliseconds, with
/// their nearest-rank summary (util/stats.h Percentile, the definition
/// the daemon's `stats` verb uses too).
struct Timing {
  bool ok = true;  ///< false when a call reported failure
  std::vector<double> samples_ms;  ///< in run order
  double min_ms = 0, p50_ms = 0, p95_ms = 0, max_ms = 0, total_ms = 0;
};

inline Timing Summarize(std::vector<double> samples_ms) {
  Timing t;
  t.min_ms = Percentile(samples_ms, 0);
  t.p50_ms = Percentile(samples_ms, 0.50);
  t.p95_ms = Percentile(samples_ms, 0.95);
  t.max_ms = Percentile(samples_ms, 1);
  for (double ms : samples_ms) t.total_ms += ms;
  t.samples_ms = std::move(samples_ms);
  return t;
}

namespace internal {
// Calls `fn`; a void `fn` cannot fail.
template <typename Fn>
bool Succeeded(Fn& fn) {
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    fn();
    return true;
  } else {
    return fn();
  }
}
}  // namespace internal

/// Calls `fn` `warmup` times untimed, then `runs` times timed. `setup`
/// runs untimed before every call. `fn` and `setup` return void or bool;
/// the first false stops the measurement and clears `ok`.
template <typename Fn, typename Setup>
Timing Time(size_t runs, size_t warmup, Fn&& fn, Setup&& setup) {
  Timing failed;
  failed.ok = false;
  std::vector<double> samples;
  for (size_t i = 0; i < warmup + runs; ++i) {
    if (!internal::Succeeded(setup)) return failed;
    WallTimer timer;
    if (!internal::Succeeded(fn)) return failed;
    const double ms = timer.ElapsedMillis();
    if (i >= warmup) samples.push_back(ms);
  }
  return Summarize(std::move(samples));
}

template <typename Fn>
Timing Time(size_t runs, size_t warmup, Fn&& fn) {
  return Time(runs, warmup, std::forward<Fn>(fn), [] {});
}

// ---------------------------------------------------------------- report ---

/// One record of a Report: JSON fields in order, each optionally also a
/// column of the section's stdout table (`heading`, at most 11 chars).
/// Keys and headings must be string literals.
class Row {
 public:
  template <std::integral T>
  Row& Int(const char* key, T value, const char* heading = nullptr) {
    return Add(heading, std::to_string(value),
               [=](service::JsonBuf& b) { b.Int(key, value); });
  }
  /// A fixed-point number with `decimals` digits.
  Row& Num(const char* key, double value, int decimals,
           const char* heading = nullptr) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.*f", decimals, value);
    return Add(heading, cell,
               [=](service::JsonBuf& b) { b.Num(key, value, decimals); });
  }
  /// A number in its shortest "%g" form (scales).
  Row& Num(const char* key, double value, const char* heading = nullptr) {
    return Add(heading, Fmt("%g", value),
               [=](service::JsonBuf& b) { b.Num(key, value); });
  }
  Row& Bool(const char* key, bool value, const char* heading = nullptr) {
    return Add(heading, value ? "yes" : "NO",
               [=](service::JsonBuf& b) { b.Bool(key, value); });
  }
  Row& Str(const char* key, std::string value,
           const char* heading = nullptr) {
    return Add(heading, value,
               [=](service::JsonBuf& b) { b.Str(key, value); });
  }
  /// A nested array of rows, written inline in the JSON only.
  Row& Rows(const char* key, std::vector<Row> rows) {
    auto json = [key, rows = std::move(rows)](service::JsonBuf& b) {
      b.Array(key);
      for (const Row& row : rows) row.Write(b.Item()).End();
      b.End();
    };
    return Add(nullptr, "", std::move(json));
  }

  service::JsonBuf& Write(service::JsonBuf& b) const {
    for (const Field& f : fields_) f.json(b);
    return b;
  }

 private:
  friend class Report;
  struct Field {
    const char* heading;
    std::string cell;
    std::function<void(service::JsonBuf&)> json;
  };

  Row& Add(const char* heading, std::string cell,
           std::function<void(service::JsonBuf&)> json) {
    fields_.push_back({heading, std::move(cell), std::move(json)});
    return *this;
  }

  std::vector<Field> fields_;
};

/// The record of one bench run: a provenance header, arrays of rows that
/// feed both the stdout tables and the JSON, and the gates the run must
/// pass before Finish writes anything. The JSON is the perf record of a
/// correct run, so a run with a failed gate leaves no file behind.
class Report {
 public:
  /// `bench` is the JSON "bench" name; `sections` names the row arrays in
  /// output order (each is written, empty or not); `provenance` says how
  /// the numbers were taken.
  Report(const char* bench, std::vector<const char*> sections,
         std::string provenance)
      : bench_(bench), provenance_(std::move(provenance)) {
    for (const char* key : sections) sections_.push_back({key, {}});
  }

  /// Header fields between "bench" and the provenance: the bench's flags.
  Row& params() { return params_; }

  void Add(const char* section, Row row) {
    for (Section& s : sections_) {
      if (std::string_view(s.key) == section) {
        s.rows.push_back(std::move(row));
        return;
      }
    }
    std::fprintf(stderr, "bench: undeclared section %s\n", section);
    std::abort();
  }

  /// Records a gate; a failed one prints `what` and blocks the write.
  bool Gate(bool ok, const std::string& what) {
    if (!ok) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    failed_ = failed_ || !ok;
    return ok;
  }

  /// Prints the tables, then writes the JSON to `path` and returns 0 —
  /// or writes nothing and returns 1 unless every gate passed.
  int Finish(const std::string& path) const {
    for (const Section& s : sections_) PrintTable(s);
    if (failed_) {
      std::fprintf(stderr, "FAIL: a gate failed; not writing %s\n",
                   path.c_str());
      return 1;
    }
    service::JsonBuf b;
    b.Str("bench", bench_);
    params_.Write(b)
        .Int("hardware_threads", std::thread::hardware_concurrency())
        .Str("compiler", kCompiler)
        .Str("build_type", kBuildType)
        .Str("provenance", provenance_);
    for (const Section& s : sections_) {
      b.Array(s.key);
      for (const Row& row : s.rows) row.Write(b.Item()).End();
      b.End();
    }
    std::ofstream f(path, std::ios::binary);
    f << b.Take();
    if (!f.flush()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
  }

 private:
  struct Section {
    const char* key;
    std::vector<Row> rows;
  };

  static constexpr const char* kCompiler =
#if defined(__GNUC__) && !defined(__clang__)
      "gcc "
#endif
      __VERSION__;
  static constexpr const char* kBuildType =
#ifdef NDEBUG
      "release"
#else
      "debug"
#endif
#ifdef __SANITIZE_ADDRESS__
      "+asan"
#endif
#ifdef __SANITIZE_THREAD__
      "+tsan"
#endif
      ;

  static void PrintTable(const Section& s) {
    if (s.rows.empty()) return;
    std::vector<std::string> headings;
    for (const Row::Field& f : s.rows.front().fields_) {
      if (f.heading != nullptr) headings.push_back(f.heading);
    }
    std::printf("\n%s\n", s.key);
    TablePrinter table(headings);
    for (const Row& row : s.rows) {
      std::vector<std::string> cells;
      for (const Row::Field& f : row.fields_) {
        if (f.heading != nullptr) cells.push_back(f.cell);
      }
      table.Row(cells);
    }
  }

  const char* bench_;
  std::string provenance_;
  Row params_;
  std::vector<Section> sections_;
  bool failed_ = false;
};

// ---------------------------------------------------------- scratch files ---

/// A fresh directory under the system temp dir, private to this process,
/// removed with everything in it when the object goes out of scope — so
/// concurrent runs never share a file and no exit path leaks one.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (name + "_XXXXXX"))
            .string();
    if (mkdtemp(pattern.data()) == nullptr) {
      std::fprintf(stderr, "cannot create a scratch directory %s\n",
                   pattern.c_str());
      std::exit(1);
    }
    dir_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& dir() const { return dir_; }
  std::string Path(const std::string& file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace rdfalign::bench

#endif  // RDFALIGN_BENCH_HARNESS_H_
