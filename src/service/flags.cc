#include "service/flags.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace rdfalign::service {

Args::Args(int argc, char** argv, int start) {
  std::vector<std::string> tokens;
  for (int i = start; i < argc; ++i) tokens.emplace_back(argv[i]);
  Tokenize(tokens);
}

Args::Args(const std::vector<std::string>& tokens) { Tokenize(tokens); }

void Args::Tokenize(const std::vector<std::string>& tokens) {
  for (const std::string& arg : tokens) {
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "";
      } else {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

std::string Args::GetString(const std::string& name,
                            const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::optional<long long> Args::GetInt(const std::string& name,
                                      long long fallback,
                                      std::string* error) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE) {
    if (error) {
      *error = "rdfalign: --" + name + " expects an integer, got '" +
               it->second + "'";
    }
    return std::nullopt;
  }
  return value;
}

std::optional<double> Args::GetDouble(const std::string& name,
                                      double fallback,
                                      std::string* error) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0' || errno == ERANGE) {
    if (error) {
      *error = "rdfalign: --" + name + " expects a number, got '" +
               it->second + "'";
    }
    return std::nullopt;
  }
  return value;
}

bool Args::OnlyKnown(std::initializer_list<const char*> known,
                     std::string* error) const {
  for (const auto& [name, value] : flags_) {
    bool ok = false;
    for (const char* k : known) ok = ok || name == k;
    if (!ok) {
      if (error) *error = "rdfalign: unknown flag --" + name;
      return false;
    }
  }
  return true;
}

bool ParseCommonFlags(const Args& args, const char* cmd, CommonOptions* out,
                      std::string* error) {
  const std::optional<long long> threads = args.GetInt("threads", 1, error);
  if (!threads) return false;
  if (*threads < 0 || *threads > 4096) {
    if (error) {
      *error = std::string("rdfalign ") + cmd +
               ": --threads must be in [0, 4096]";
    }
    return false;
  }
  out->threads = static_cast<size_t>(*threads);
  out->json = args.Has("json");
  return true;
}

}  // namespace rdfalign::service
