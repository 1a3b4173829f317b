// Ablation of the L2S design choices DESIGN.md calls out:
//
//   * thresholds T/t (overload / underload),
//   * local bias (serve-locally preference within the server set),
//   * herd damping (two-choice selection under stale views),
//   * replication on/off (pure partitioning vs the full algorithm).
//
// Run on the synthetic Calgary trace at 16 nodes, where the trade-offs
// between locality, balance and forwarding are all visible.
#include <iostream>
#include <string>
#include <vector>

#include "l2sim/l2sim.hpp"

using namespace l2s;

namespace {

core::SimResult run_with(const trace::Trace& tr, const core::SimConfig& cfg,
                         const policy::L2sParams& p) {
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>(p));
  return sim.run();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "L2S design ablation (synthetic Calgary, 16 nodes, "
            << "L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);

  core::SimConfig cfg;
  cfg.nodes = 16;
  cfg.node.cache_bytes = 32 * kMiB;

  policy::L2sParams base;
  base.set_shrink_seconds = 20.0 * scale;

  struct Variant {
    std::string name;
    policy::L2sParams params;
  };
  std::vector<Variant> variants;
  variants.push_back({"baseline (T=20,t=10)", base});
  {
    auto p = base;
    p.overload_threshold = 10;
    p.underload_threshold = 5;
    variants.push_back({"tight thresholds (T=10,t=5)", p});
  }
  {
    auto p = base;
    p.overload_threshold = 40;
    p.underload_threshold = 20;
    variants.push_back({"loose thresholds (T=40,t=20)", p});
  }
  {
    auto p = base;
    p.local_bias = 0;
    variants.push_back({"no local bias", p});
  }
  {
    auto p = base;
    p.local_bias = 1000000;
    variants.push_back({"always serve locally if cached", p});
  }
  {
    auto p = base;
    p.herd_damping = true;
    variants.push_back({"herd damping on", p});
  }
  {
    // Effectively no replication: growth requires loads beyond any the
    // closed-loop injector can produce, so server sets stay singletons.
    auto p = base;
    p.overload_threshold = 1000000;
    p.underload_threshold = 999999;
    variants.push_back({"no replication (pure partition)", p});
  }

  TextTable t({"Variant", "Throughput", "Miss (%)", "Forwarded (%)", "Idle (%)"});
  CsvWriter csv(dir, "l2s_ablation", {"variant", "rps", "miss", "forwarded", "idle"});
  for (const auto& v : variants) {
    const auto r = run_with(tr, cfg, v.params);
    t.cell(v.name)
        .cell(r.throughput_rps, 0)
        .cell(r.miss_rate * 100.0, 2)
        .cell(r.forwarded_fraction * 100.0, 1)
        .cell(r.cpu_idle_fraction * 100.0, 1)
        .end_row();
    csv.add_row({v.name, format_double(r.throughput_rps, 1), format_double(r.miss_rate, 4),
                 format_double(r.forwarded_fraction, 4),
                 format_double(r.cpu_idle_fraction, 4)});
  }
  t.print(std::cout);
  return 0;
}
