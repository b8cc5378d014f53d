// The one JSON writer of the service layer. Every --json report the CLI
// prints, every response body the daemon frames (verbs, stream sessions,
// `stats`) and the response envelope are built through JsonBuf, so the
// wire formats share one code path and one escaping rule.
//
// JsonBuf is a streaming writer, not a DOM: responses are small and their
// field order and layout are part of the pinned output (cli-smoke greps
// `^  "triples":`-style anchors; tests/verbs_golden_test.cc pins bytes).
// The layout is fixed:
//
//   {
//     "key": value,                       top-level fields, one per line
//     "obj": {"a": 1, "b": "x"},          Object(): nested, inline
//     "list": [
//       {"a": 1},                         Array() + Item(): one inline
//       {"a": 2, "l": [{"b": 1}]}         object per line; an Array()
//     ],                                  inside one stays inline
//     "last": 0.50                        (an empty array is "[\n  ]")
//   }
//
// Commas are placed by the writer, and every string value is escaped.

#ifndef RDFALIGN_SERVICE_JSON_H_
#define RDFALIGN_SERVICE_JSON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfalign::service {

class JsonBuf {
 public:
  JsonBuf() : out_("{") {}

  /// A string field; the value is always escaped.
  JsonBuf& Str(const char* key, std::string_view value);
  template <std::integral T>
  JsonBuf& Int(const char* key, T value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonBuf& Bool(const char* key, bool value);
  /// A fixed-point number with `decimals` digits (printf "%.Nf").
  JsonBuf& Num(const char* key, double value, int decimals);
  /// A number in its shortest printf "%g" form.
  JsonBuf& Num(const char* key, double value);
  /// A 64-bit fingerprint or checksum as a quoted "%016llx" string.
  JsonBuf& Hex(const char* key, uint64_t value);

  /// Opens an inline object under `key`; close it with End().
  JsonBuf& Object(const char* key);
  /// Opens an array of inline objects under `key`; close it with End().
  JsonBuf& Array(const char* key);
  /// Opens the next element of the current array; close it with End().
  JsonBuf& Item();
  JsonBuf& End();

  /// Closes every open scope and the document; returns the text.
  std::string Take();

 private:
  enum class Scope : uint8_t { kTop, kInline, kArray, kInlineArray };
  struct Level {
    Scope scope;
    bool empty;
  };

  /// Emits the separator before the next member of the current scope.
  void Next();
  void Key(const char* key);

  std::string out_;
  std::vector<Level> levels_{{Scope::kTop, true}};
};

/// Escapes a string for embedding inside a JSON string literal
/// (backslash, quote, and control characters).
std::string JsonEscape(std::string_view s);

/// Scans `json` for `"key": <integer>` and returns the integer, or
/// `fallback` when absent. This is the only "parsing" the service client
/// does — the envelope is produced by JsonBuf in this process family,
/// so a field scan is exact, not heuristic.
long long JsonFindInt(const std::string& json, const std::string& key,
                      long long fallback);

/// Scans `json` for `"key": "<value>"` and returns the (unescaped) value,
/// or `fallback` when absent.
std::string JsonFindString(const std::string& json, const std::string& key,
                           const std::string& fallback);

/// Scans `json` for `"key": true|false`; `fallback` when absent.
bool JsonFindBool(const std::string& json, const std::string& key,
                  bool fallback);

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_JSON_H_
