#include "l2sim/common/cli_args.hpp"

#include <cstdint>
#include <limits>

#include "l2sim/common/error.hpp"
#include "parse_number.hpp"

namespace l2s {

CliArgs::CliArgs(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& key) const { return values_.contains(key); }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double("--" + key, it->second.c_str());
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::int64_t v = parse_int("--" + key, it->second.c_str());
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw_error("--" + key + " is out of range: " + it->second);
  return static_cast<int>(v);
}

}  // namespace l2s
