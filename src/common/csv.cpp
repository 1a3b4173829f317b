#include "l2sim/common/csv.hpp"

#include <cstdlib>
#include <string_view>

#include "l2sim/common/error.hpp"

namespace l2s {

CsvWriter::CsvWriter() = default;

CsvWriter::CsvWriter(const std::string& dir, const std::string& name,
                     std::vector<std::string> header)
    : columns_(header.size()) {
  if (dir.empty()) return;
  path_ = dir + "/" + name + ".csv";
  out_.emplace(path_);
  if (!*out_) throw_error("cannot open output file: " + path_);
  for (std::size_t c = 0; c < header.size(); ++c) {
    *out_ << header[c];
    *out_ << (c + 1 < header.size() ? ',' : '\n');
  }
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (!out_) return;
  L2S_REQUIRE(cells.size() == columns_);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    *out_ << cells[c];
    *out_ << (c + 1 < cells.size() ? ',' : '\n');
  }
}

void CsvWriter::close() {
  if (!out_) return;
  if (!out_->flush()) throw_error("cannot write output file: " + path_);
  out_.reset();
}

std::string csv_dir_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--csv=", 0) == 0) return std::string(arg.substr(6));
  }
  if (const char* env = std::getenv("L2SIM_CSV_DIR")) return env;
  return {};
}

}  // namespace l2s
