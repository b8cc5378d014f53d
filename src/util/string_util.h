// String helpers shared by the parser, the overlap heuristic's word
// splitter (§4.7 `split`), and the workload generators.

#ifndef RDFALIGN_UTIL_STRING_UTIL_H_
#define RDFALIGN_UTIL_STRING_UTIL_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace rdfalign {

/// Splits on a single character; empty fields are kept.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// The single definition of the Algorithm 2 `split` tokenization: invokes
/// `fn(word)` for each maximal run of alphanumeric characters of `s`,
/// lower-cased into `scratch` (reused between words, cleared on return).
/// SplitWords and the overlap aligner's streaming word interner are both
/// built on this so their word boundaries can never diverge.
template <typename Fn>
void ForEachWord(std::string_view s, std::string& scratch, Fn&& fn) {
  scratch.clear();
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      scratch.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!scratch.empty()) {
      fn(std::string_view(scratch));
      scratch.clear();
    }
  }
  if (!scratch.empty()) {
    fn(std::string_view(scratch));
    scratch.clear();
  }
}

/// Splits into maximal runs of alphanumeric characters, lower-cased.
/// This is the `split` node-characterizing function of Algorithm 2: a
/// literal label becomes the set of its words.
std::vector<std::string> SplitWords(std::string_view s);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Escapes a literal value for N-Triples output ("\n", "\"", "\\", ...).
std::string EscapeNTriplesString(std::string_view s);

/// Reverses EscapeNTriplesString. Returns false on a malformed escape.
bool UnescapeNTriplesString(std::string_view s, std::string* out);

/// Renders n with thousands separators ("1,234,567") for harness tables.
std::string FormatWithCommas(uint64_t n);

/// Renders a double with fixed precision.
std::string FormatDouble(double v, int precision);

/// Appends printf-formatted text to `out` (any length).
void StrAppendf(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace rdfalign

#endif  // RDFALIGN_UTIL_STRING_UTIL_H_
