// Section 5.2 memory-size study (simulation).
//
// Paper findings: growing the per-node memory helps the traditional
// server tremendously (its miss rate falls directly) but affects L2S and
// LARD much less (their miss rates are already low); LARD in addition
// stays pinned at its ~5000 req/s front-end barrier, so with 128 MB
// memories and 8+ nodes the traditional server can overtake LARD.
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"

using namespace l2s;

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Throughput (req/s) vs per-node memory (synthetic Clarknet, "
            << "L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Clarknet");
  spec.requests = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale), 600000);
  const trace::Trace tr = trace::generate(spec);

  CsvWriter csv(dir, "sim_memory_sweep",
                {"memory_mb", "nodes", "l2s", "lard", "trad"});
  for (const int nodes : {8, 16}) {
    TextTable t({"Memory (MB)", "L2S", "LARD", "trad", "trad miss (%)"});
    for (const Bytes mb : {32ULL, 64ULL, 128ULL}) {
      core::SimConfig cfg;
      cfg.nodes = nodes;
      cfg.node.cache_bytes = mb * kMiB;
      const double shrink = 20.0 * scale;
      const auto l2s_r = core::run_once(tr, cfg, core::PolicyKind::kL2s, shrink);
      const auto lard_r = core::run_once(tr, cfg, core::PolicyKind::kLard, shrink);
      const auto trad_r = core::run_once(tr, cfg, core::PolicyKind::kTraditional, shrink);
      t.cell(static_cast<long long>(mb))
          .cell(l2s_r.throughput_rps, 0)
          .cell(lard_r.throughput_rps, 0)
          .cell(trad_r.throughput_rps, 0)
          .cell(trad_r.miss_rate * 100.0, 1)
          .end_row();
      csv.add_row({std::to_string(mb), std::to_string(nodes),
                   format_double(l2s_r.throughput_rps, 1),
                   format_double(lard_r.throughput_rps, 1),
                   format_double(trad_r.throughput_rps, 1)});
    }
    std::cout << nodes << " nodes:\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
