// CSV emission for bench harnesses: when L2SIM_CSV_DIR is set (or a path is
// passed explicitly), each experiment also writes its series as CSV so plots
// can be regenerated outside the binary.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace l2s {

class CsvWriter {
 public:
  /// Opens `<dir>/<name>.csv` if `dir` is non-empty; otherwise a no-op sink.
  CsvWriter(const std::string& dir, const std::string& name,
            std::vector<std::string> header);

  /// No-op sink (writes nowhere).
  CsvWriter();

  void add_row(const std::vector<std::string>& cells);
  [[nodiscard]] bool active() const { return out_.has_value(); }

  /// Flush and close the file. Throws l2s::Error ("cannot write output
  /// file: PATH") when any write failed (a full disk, /dev/full). The
  /// destructor closes without checking, so every writer calls this once
  /// its rows are in.
  void close();

 private:
  std::optional<std::ofstream> out_;
  std::string path_;
  std::size_t columns_ = 0;
};

/// Resolve the CSV output directory for benches: explicit --csv=DIR argument
/// wins, then the L2SIM_CSV_DIR environment variable, else empty (disabled).
[[nodiscard]] std::string csv_dir_from_args(int argc, char** argv);

}  // namespace l2s
