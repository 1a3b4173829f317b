// Cache-replacement ablation: whole-file LRU (the paper's policy) vs GDSF
// (GreedyDual-Size with Frequency), per trace and per server policy.
//
// Expectation from the web-caching literature: GDSF raises the *request*
// hit rate when file sizes vary widely and capacity is tight (it keeps
// many small hot files instead of few big ones); with content-aware
// distribution the combined cache is already large relative to the working
// set, so the gap narrows.
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"

using namespace l2s;

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Cache policy ablation: LRU vs GDSF (8 nodes, "
            << "L2SIM_SCALE=" << scale << ")\n\n";

  CsvWriter csv(dir, "cache_policy_study",
                {"trace", "policy", "cache", "rps", "missrate"});
  TextTable t({"Trace", "Server", "LRU req/s", "LRU miss%", "GDSF req/s", "GDSF miss%"});
  for (const auto& base : trace::paper_trace_specs()) {
    auto spec = base;
    spec.requests = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale), 400000);
    const trace::Trace tr = trace::generate(spec);
    const double shrink = 20.0 * scale;
    for (const auto kind : {core::PolicyKind::kL2s, core::PolicyKind::kTraditional}) {
      core::SimResult results[2];
      for (int which = 0; which < 2; ++which) {
        core::SimConfig cfg;
        cfg.nodes = 8;
        cfg.node.cache_bytes = 32 * kMiB;
        cfg.node.cache_policy =
            which == 0 ? cluster::CachePolicy::kLru : cluster::CachePolicy::kGdsf;
        results[which] = core::run_once(tr, cfg, kind, shrink);
        csv.add_row({spec.name, core::policy_kind_name(kind),
                     which == 0 ? "lru" : "gdsf",
                     format_double(results[which].throughput_rps, 1),
                     format_double(results[which].miss_rate, 4)});
      }
      t.cell(spec.name)
          .cell(core::policy_kind_name(kind))
          .cell(results[0].throughput_rps, 0)
          .cell(results[0].miss_rate * 100.0, 1)
          .cell(results[1].throughput_rps, 0)
          .cell(results[1].miss_rate * 100.0, 1)
          .end_row();
    }
  }
  t.print(std::cout);
  return 0;
}
