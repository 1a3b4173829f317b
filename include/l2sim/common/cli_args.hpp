// Minimal --flag/value command-line parser used by the l2sim CLI (and
// available to downstream tools). Flags may be boolean (present without a
// value), `--key value`, or `--key=value`; anything not starting with
// "--" is positional.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace l2s {

class CliArgs {
 public:
  /// Parse argv[start..argc).
  CliArgs(int argc, const char* const* argv, int start = 1);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  /// The flag's value as a number, or `fallback` when the flag is absent.
  /// Throws l2s::Error naming the flag unless the whole value parses (no
  /// trailing characters, no NaN, no overflow; get_int: fits an int).
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  /// A comma-separated list ("4,8,16"), every item parsed like get_double /
  /// get_int; an empty item is an error. Empty when the flag is absent.
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key) const;
  [[nodiscard]] std::vector<int> get_int_list(const std::string& key) const;
  /// An INT@NUMBER pair such as `--fail NODE@SECONDS`, both halves strict.
  /// The flag must be present.
  [[nodiscard]] std::pair<int, double> get_int_at_double(const std::string& key) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace l2s
