// Rendering of experiment results as paper-style tables and CSV series.
#pragma once

#include <iosfwd>
#include <string>

#include "l2sim/core/experiment.hpp"

namespace l2s::core {

/// Print a Figure 7-10 style table: one row per node count with the model
/// bound and the three servers' throughputs.
void print_throughput_figure(std::ostream& os, const FigureSeries& fig);

/// Emit the same series as CSV (`<dir>/<name>.csv`); no-op when dir empty.
void write_throughput_csv(const FigureSeries& fig, const std::string& dir,
                          const std::string& name);

/// Print per-node-count detail for one metric extracted from the stored
/// SimResults: "missrate", "idle", "forwarded" or "response".
void print_metric_figure(std::ostream& os, const FigureSeries& fig,
                         const std::string& metric);

/// Extract one metric value from a result (shared by table and CSV paths):
/// the four above or "throughput". Throws l2s::Error on any other name.
[[nodiscard]] double metric_value(const SimResult& r, const std::string& metric);

}  // namespace l2s::core
