// Load-balance study: the paper argues L2S "balances load effectively"
// while a strict (no-replication) locality scheme suffers severe
// imbalance. This harness quantifies it with the sampled per-node
// open-connection coefficient of variation (CoV, 0 = perfect balance) and
// the max/mean load ratio, across policies and cluster sizes, plus the
// no-replication L2S ablation that reproduces the "strict implementation"
// the paper warns about.
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"

using namespace l2s;

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Load imbalance (sampled open-connection CoV / max-mean ratio), "
            << "synthetic Calgary (L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);
  const double shrink = 20.0 * scale;

  CsvWriter csv(dir, "load_balance_study",
                {"policy", "nodes", "cov", "max_over_mean", "rps"});
  TextTable t({"Policy", "Nodes", "Load CoV", "max/mean", "Throughput"});
  auto add = [&](const std::string& name, int nodes, const core::SimResult& r) {
    t.cell(name).cell(static_cast<long long>(nodes)).cell(r.load_cov, 3)
        .cell(r.load_max_over_mean, 2).cell(r.throughput_rps, 0).end_row();
    csv.add_row({name, std::to_string(nodes), format_double(r.load_cov, 4),
                 format_double(r.load_max_over_mean, 4),
                 format_double(r.throughput_rps, 1)});
  };

  for (const int nodes : {4, 8, 16}) {
    core::SimConfig cfg;
    cfg.nodes = nodes;
    cfg.node.cache_bytes = 32 * kMiB;
    for (const auto kind : core::all_policies()) {
      add(core::policy_kind_name(kind), nodes, core::run_once(tr, cfg, kind, shrink));
    }
    // Strict locality (no replication): the paper's cautionary baseline.
    policy::L2sParams strict;
    strict.overload_threshold = 1000000;
    strict.underload_threshold = 999999;
    strict.set_shrink_seconds = shrink;
    core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>(strict));
    add("L2S-strict", nodes, sim.run());
  }
  t.print(std::cout);
  std::cout << "\nPaper expectation: the traditional server balances best (it has\n"
               "nothing else to optimize); L2S stays close while keeping locality;\n"
               "strict no-replication locality shows severe imbalance.\n";
  return 0;
}
