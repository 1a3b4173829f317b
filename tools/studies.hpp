// The study registry behind `l2sim study NAME`: every table, figure and
// extension study of the reproduction except Figures 7-10 and the Section
// 5.2 node-count tables, which `l2sim figure` prints from one sweep.
#pragma once

#include <string>
#include <vector>

namespace l2s::study {

/// The flags `l2sim study` shares with `l2sim figure`.
struct Options {
  double scale = 0.1;    ///< --scale: request-count factor of the paper traces
  std::string csv_dir;   ///< --csv DIR: where CSV series go ("" = none)
  unsigned threads = 0;  ///< --threads: run_parallel's budget (0 = the thread budget)
};

struct Study {
  const char* name;
  const char* summary;          ///< one line for `l2sim study --list`
  int (*run)(const Options&);  ///< prints the study; returns the exit status
};

/// Every study: the model's first, then the traces', then the
/// simulations'.
[[nodiscard]] const std::vector<Study>& studies();

}  // namespace l2s::study
