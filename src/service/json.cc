#include "service/json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace rdfalign::service {

JsonBuf& JsonBuf::Str(const char* key, std::string_view value) {
  Key(key);
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonBuf& JsonBuf::Bool(const char* key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonBuf& JsonBuf::Num(const char* key, double value, int decimals) {
  Key(key);
  StrAppendf(&out_, "%.*f", decimals, value);
  return *this;
}

JsonBuf& JsonBuf::Num(const char* key, double value) {
  Key(key);
  StrAppendf(&out_, "%g", value);
  return *this;
}

JsonBuf& JsonBuf::Hex(const char* key, uint64_t value) {
  Key(key);
  StrAppendf(&out_, "\"%016llx\"", static_cast<unsigned long long>(value));
  return *this;
}

JsonBuf& JsonBuf::Object(const char* key) {
  Key(key);
  out_ += '{';
  levels_.push_back({Scope::kInline, true});
  return *this;
}

JsonBuf& JsonBuf::Array(const char* key) {
  Key(key);
  out_ += '[';
  const bool in_line = levels_.back().scope == Scope::kInline;
  levels_.push_back({in_line ? Scope::kInlineArray : Scope::kArray, true});
  return *this;
}

JsonBuf& JsonBuf::Item() {
  Next();
  out_ += '{';
  levels_.push_back({Scope::kInline, true});
  return *this;
}

JsonBuf& JsonBuf::End() {
  switch (levels_.back().scope) {
    case Scope::kArray:
      out_ += "\n  ]";
      break;
    case Scope::kInlineArray:
      out_ += ']';
      break;
    default:
      out_ += '}';
  }
  levels_.pop_back();
  return *this;
}

std::string JsonBuf::Take() {
  while (levels_.size() > 1) End();
  out_ += "\n}\n";
  return std::move(out_);
}

void JsonBuf::Next() {
  Level& level = levels_.back();
  switch (level.scope) {
    case Scope::kTop:
      out_ += level.empty ? "\n  " : ",\n  ";
      break;
    case Scope::kInline:
    case Scope::kInlineArray:
      if (!level.empty) out_ += ", ";
      break;
    case Scope::kArray:
      out_ += level.empty ? "\n    " : ",\n    ";
      break;
  }
  level.empty = false;
}

void JsonBuf::Key(const char* key) {
  Next();
  out_ += '"';
  out_ += key;
  out_ += "\": ";
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

/// Finds the character position just after `"key": ` or npos.
size_t FindValuePos(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::string::npos;
  return at + needle.size();
}

}  // namespace

long long JsonFindInt(const std::string& json, const std::string& key,
                      long long fallback) {
  const size_t pos = FindValuePos(json, key);
  if (pos == std::string::npos || pos >= json.size()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(json.c_str() + pos, &end, 10);
  if (end == json.c_str() + pos) return fallback;
  return value;
}

std::string JsonFindString(const std::string& json, const std::string& key,
                           const std::string& fallback) {
  size_t pos = FindValuePos(json, key);
  if (pos == std::string::npos || pos >= json.size() || json[pos] != '"') {
    return fallback;
  }
  ++pos;
  std::string out;
  while (pos < json.size() && json[pos] != '"') {
    char c = json[pos];
    if (c == '\\' && pos + 1 < json.size()) {
      ++pos;
      switch (json[pos]) {
        case 'n':
          c = '\n';
          break;
        case 'r':
          c = '\r';
          break;
        case 't':
          c = '\t';
          break;
        case 'u':
          // JsonEscape writes every other control byte as \u00XX.
          c = 'u';
          if (pos + 4 < json.size()) {
            c = static_cast<char>(
                std::strtol(json.substr(pos + 1, 4).c_str(), nullptr, 16));
            pos += 4;
          }
          break;
        default:
          c = json[pos];
      }
    }
    out += c;
    ++pos;
  }
  return out;
}

bool JsonFindBool(const std::string& json, const std::string& key,
                  bool fallback) {
  const size_t pos = FindValuePos(json, key);
  if (pos == std::string::npos) return fallback;
  if (json.compare(pos, 4, "true") == 0) return true;
  if (json.compare(pos, 5, "false") == 0) return false;
  return fallback;
}

}  // namespace rdfalign::service
