#include "util/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace rdfalign {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitWords(std::string_view s) {
  std::vector<std::string> out;
  std::string scratch;
  ForEachWord(s, scratch,
              [&](std::string_view word) { out.emplace_back(word); });
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string EscapeNTriplesString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

bool UnescapeNTriplesString(std::string_view s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i + 1 >= s.size()) return false;
    char e = s[++i];
    switch (e) {
      case '\\':
        out->push_back('\\');
        break;
      case '"':
        out->push_back('"');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 't':
        out->push_back('\t');
        break;
      case 'u':
      case 'U': {
        // \uXXXX or \UXXXXXXXX: decode to UTF-8.
        const size_t digits = (e == 'u') ? 4 : 8;
        if (i + digits >= s.size()) return false;
        uint32_t cp = 0;
        for (size_t d = 0; d < digits; ++d) {
          char h = s[++i];
          cp <<= 4;
          if (h >= '0' && h <= '9') {
            cp |= static_cast<uint32_t>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            cp |= static_cast<uint32_t>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            cp |= static_cast<uint32_t>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        if (cp <= 0x7f) {
          out->push_back(static_cast<char>(cp));
        } else if (cp <= 0x7ff) {
          out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp <= 0xffff) {
          out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp <= 0x10ffff) {
          out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
          return false;
        }
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

std::string FormatWithCommas(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i > 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void StrAppendf(std::string* out, const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  if (n > 0) {
    const size_t old = out->size();
    out->resize(old + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + old, static_cast<size_t>(n) + 1, format,
                   ap2);
    out->resize(old + static_cast<size_t>(n));
  }
  va_end(ap2);
}

}  // namespace rdfalign
