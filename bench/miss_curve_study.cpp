// Miss-ratio curves via one-pass Mattson stack-distance analysis: the LRU
// miss rate of a sequential server at every memory size, for each paper
// trace. This is the analysis behind the paper's sizing decisions — why
// 32 MB memories make the traces' working sets "significant in comparison
// to cache sizes" and what growing to 128 MB changes (Section 5.2).
#include <iostream>
#include <string>
#include <vector>

#include "l2sim/cache/stack_distance.hpp"
#include "l2sim/l2sim.hpp"

using namespace l2s;

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Sequential LRU miss-ratio curves (one-pass stack-distance analysis, "
            << "L2SIM_SCALE=" << scale << ")\n\n";

  const std::vector<Bytes> capacities = {8 * kMiB,  16 * kMiB,  32 * kMiB, 64 * kMiB,
                                         128 * kMiB, 256 * kMiB, 512 * kMiB};
  TextTable t({"Trace", "8MB", "16MB", "32MB", "64MB", "128MB", "256MB", "512MB"});
  CsvWriter csv(dir, "miss_curve_study", {"trace", "capacity_mb", "miss_rate"});
  for (const auto& base : trace::paper_trace_specs()) {
    auto spec = base;
    spec.requests = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale), 400000);
    const trace::Trace tr = trace::generate(spec);
    const cache::StackDistanceAnalyzer sd(tr);
    const auto curve = sd.miss_curve_bytes(capacities);
    t.cell(spec.name);
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      t.cell(curve[i] * 100.0, 1);
      csv.add_row({spec.name, std::to_string(capacities[i] / kMiB),
                   format_double(curve[i], 4)});
    }
    t.end_row();
  }
  t.print(std::cout);
  std::cout << "\n(miss %, compulsory misses included; the 32 MB column is the\n"
               "paper's simulated memory size, the 128 MB column its Section 5.2\n"
               "memory-growth scenario)\n";
  return 0;
}
