// policy_comparison: run the full Figure 7-10 style sweep for one of the
// paper's traces (or a CLF log from disk) and print every metric the
// paper's evaluation discusses.
//
//   $ ./policy_comparison calgary|clarknet|nasa|rutgers [scale]
//   $ ./policy_comparison --clf access.log
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "l2sim/l2sim.hpp"

namespace {

int usage() {
  std::cerr << "usage: policy_comparison <calgary|clarknet|nasa|rutgers> [scale]\n"
            << "       policy_comparison --clf <access.log>\n"
            << "scale: a finite number > 0 (default 0.05)\n";
  return 1;
}

/// The whole of `text` as a finite number > 0; nothing otherwise.
std::optional<double> parse_scale(const char* text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value) || value <= 0.0)
    return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace l2s;

  if (argc < 2) return usage();

  try {
    // One declarative spec covers both workload sources; the sweep below
    // realizes it once and runs every point from it.
    core::ExperimentSpec exp;
    exp.name = "policy_comparison";
    exp.sim.node.cache_bytes = 32 * kMiB;
    if (std::string(argv[1]) == "--clf") {
      if (argc < 3) {
        std::cerr << "missing CLF path\n";
        return 1;
      }
      exp.trace = core::TraceSpec::clf(argv[2]);
    } else {
      const std::optional<double> parsed = argc > 2 ? parse_scale(argv[2]) : 0.05;
      if (!parsed) return usage();
      const double scale = *parsed;
      exp.trace = core::TraceSpec::paper(argv[1], scale);
      // Replication decays over the paper's 20 s window at full trace
      // length; scale it with the truncation so the decay covers the same
      // fraction of the run.
      exp.set_shrink_seconds = 20.0 * scale;
    }

    const trace::Trace tr = exp.trace.realize();
    const auto fig = core::run_figure(exp, tr, core::kFigureNodeCounts, 0);
    core::print_throughput_figure(std::cout, fig);
    std::cout << '\n';
    for (const std::string metric : {"missrate", "idle", "forwarded", "response"}) {
      core::print_metric_figure(std::cout, fig, metric);
      std::cout << '\n';
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
