// Heterogeneous-cluster study. The paper assumes "all cluster nodes are
// equally powerful"; real clusters accrete generations of hardware. Here
// half the nodes run at half speed and we compare the policies:
// load-feedback distribution (L2S, trad's fewest-connections) adapts to
// the slow nodes automatically, while blind round-robin DNS overloads
// them.
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"
#include "l2sim/policy/round_robin.hpp"

using namespace l2s;

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Heterogeneous cluster: half the nodes at half CPU speed "
            << "(synthetic Calgary, 16 nodes, L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);
  const double shrink = 20.0 * scale;

  CsvWriter csv(dir, "heterogeneity_study",
                {"cluster", "policy", "rps", "load_cov", "idle_pct"});
  TextTable t({"Cluster", "Policy", "Throughput", "Load CoV", "Idle (%)"});
  for (const bool heterogeneous : {false, true}) {
    core::SimConfig cfg;
    cfg.nodes = 16;
    cfg.node.cache_bytes = 32 * kMiB;
    if (heterogeneous) {
      cfg.node_speed_factors.assign(16, 1.0);
      for (int n = 8; n < 16; ++n) cfg.node_speed_factors[static_cast<std::size_t>(n)] = 0.5;
    }
    const std::string label = heterogeneous ? "8 fast + 8 half-speed" : "homogeneous";

    auto add = [&](const std::string& name, const core::SimResult& r) {
      t.cell(label).cell(name).cell(r.throughput_rps, 0).cell(r.load_cov, 3)
          .cell(r.cpu_idle_fraction * 100.0, 1).end_row();
      csv.add_row({label, name, format_double(r.throughput_rps, 1),
                   format_double(r.load_cov, 4),
                   format_double(r.cpu_idle_fraction, 4)});
    };
    add("L2S", core::run_once(tr, cfg, core::PolicyKind::kL2s, shrink));
    add("trad", core::run_once(tr, cfg, core::PolicyKind::kTraditional, shrink));
    {
      core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::RoundRobinPolicy>());
      add("rr-dns", sim.run());
    }
  }
  t.print(std::cout);
  std::cout << "\nExpectation: the heterogeneous cluster has 75% of the homogeneous\n"
               "CPU capacity, and CPU-bound L2S lands near that fraction — its\n"
               "load feedback shifts work to the fast nodes without configuration.\n"
               "The locality-oblivious baselines are disk-bound on this workload,\n"
               "so slower CPUs barely move them (their idle time drops instead).\n";
  return 0;
}
