// Plain-text table formatting for the bench harnesses: every reproduced
// table/figure prints an aligned text table matching the paper's rows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace l2s {

/// Column-aligned text table. Cells are strings; numeric helpers format
/// with a fixed precision. Rendered with a header rule, e.g.:
///
///   Trace      Num files   Avg file size
///   ---------  ----------  -------------
///   Calgary         8397        42.9 KB
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Append a cell-by-cell row built via repeated calls.
  TextTable& cell(std::string value);
  TextTable& cell(double value, int precision = 2);
  TextTable& cell(long long value);
  void end_row();

  [[nodiscard]] std::string to_string() const;
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::string> pending_;
};

/// Format a double with fixed precision (helper shared with CSV output).
[[nodiscard]] std::string format_double(double value, int precision);

/// The shortest text that parses back to exactly `value` ("0.005", "2.5").
[[nodiscard]] std::string format_exact(double value);

}  // namespace l2s
