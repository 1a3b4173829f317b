#include "l2sim/common/table.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "l2sim/common/error.hpp"

namespace l2s {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_exact(double value) {
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  L2S_REQUIRE(ec == std::errc());
  return {buf.data(), end};
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  L2S_REQUIRE(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  L2S_REQUIRE(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

TextTable& TextTable::cell(std::string value) {
  pending_.push_back(std::move(value));
  return *this;
}

TextTable& TextTable::cell(double value, int precision) {
  pending_.push_back(format_double(value, precision));
  return *this;
}

TextTable& TextTable::cell(long long value) {
  pending_.push_back(std::to_string(value));
  return *this;
}

void TextTable::end_row() {
  add_row(std::move(pending_));
  pending_.clear();
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  emit(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c], '-');
    if (c + 1 < header_.size()) os << "  ";
  }
  os << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void TextTable::print(std::ostream& os) const { os << to_string(); }

}  // namespace l2s
