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

namespace {

int parse_int32(const std::string& what, const std::string& text) {
  const std::int64_t v = parse_int(what, text.c_str());
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw_error(what + " is out of range: " + text);
  return static_cast<int>(v);
}

/// `text` split at every comma, each item parsed by `parse`.
template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& what, const std::string& text, Parse parse) {
  std::vector<T> out;
  std::size_t pos = 0;
  while (true) {
    const auto comma = text.find(',', pos);
    out.push_back(parse(what, text.substr(pos, comma - pos)));
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

}  // namespace

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double("--" + key, it->second.c_str());
}

int CliArgs::get_int(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_int32("--" + key, it->second);
}

std::vector<double> CliArgs::get_double_list(const std::string& key) const {
  if (!has(key)) return {};
  return parse_list<double>("--" + key, get(key),
                            [](const std::string& what, const std::string& item) {
                              return parse_double(what, item.c_str());
                            });
}

std::vector<int> CliArgs::get_int_list(const std::string& key) const {
  if (!has(key)) return {};
  return parse_list<int>("--" + key, get(key), parse_int32);
}

std::pair<int, double> CliArgs::get_int_at_double(const std::string& key) const {
  const std::string what = "--" + key;
  const std::string value = get(key);
  const auto at = value.find('@');
  if (at == std::string::npos) throw_error(what + " expects INT@NUMBER: " + value);
  return {parse_int32(what, value.substr(0, at)),
          parse_double(what, value.substr(at + 1).c_str())};
}

}  // namespace l2s
