// Availability study — the paper's decentralization claim made concrete:
// "the front-end represents both a potential bottleneck and a single point
// of failure... In L2S we eliminate all of these problems."
//
// One node is crashed halfway through the measured pass on a 16-node
// cluster. For LARD the crash of node 0 (its front-end) stops the service;
// crashing a back-end, or any L2S/traditional node, costs only the
// requests in flight plus 1/16 of capacity.
#include <iostream>
#include <string>
#include <vector>

#include "l2sim/l2sim.hpp"
#include "l2sim/policy/round_robin.hpp"

using namespace l2s;

namespace {

core::SimResult run_with_failure(const trace::Trace& tr, core::PolicyKind kind,
                                 int dead_node, double at_seconds, double shrink) {
  core::SimConfig cfg;
  cfg.nodes = 16;
  cfg.node.cache_bytes = 32 * kMiB;
  cfg.fault_plan.crashes.push_back({dead_node, at_seconds});
  core::ClusterSimulation sim(cfg, tr, core::make_policy(kind, shrink));
  return sim.run();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Availability under a node crash (synthetic Calgary, 16 nodes, "
            << "L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);
  const double shrink = 20.0 * scale;

  // Baseline elapsed time tells us where "halfway" is.
  core::SimConfig base;
  base.nodes = 16;
  base.node.cache_bytes = 32 * kMiB;
  const auto baseline = core::run_once(tr, base, core::PolicyKind::kL2s, shrink);
  const double crash_at = baseline.elapsed_seconds * 0.5;
  std::cout << "baseline L2S: " << format_double(baseline.throughput_rps, 0)
            << " req/s over " << format_double(baseline.elapsed_seconds, 2)
            << " s; crashing at t=" << format_double(crash_at, 2) << " s\n\n";

  struct Scenario {
    std::string name;
    core::PolicyKind kind;
    int dead_node;
  };
  const std::vector<Scenario> scenarios = {
      {"L2S, any node", core::PolicyKind::kL2s, 0},
      {"LARD, front-end", core::PolicyKind::kLard, 0},
      {"LARD, back-end", core::PolicyKind::kLard, 5},
      {"trad, any node", core::PolicyKind::kTraditional, 5},
  };

  TextTable t({"Scenario", "Completed", "Failed", "Served (%)", "Throughput"});
  CsvWriter csv(dir, "availability_study",
                {"scenario", "completed", "failed", "served_pct", "rps"});
  for (const auto& s : scenarios) {
    const auto r = run_with_failure(tr, s.kind, s.dead_node, crash_at, shrink);
    const double served = 100.0 * static_cast<double>(r.completed) /
                          static_cast<double>(r.completed + r.failed);
    t.cell(s.name)
        .cell(static_cast<long long>(r.completed))
        .cell(static_cast<long long>(r.failed))
        .cell(served, 1)
        .cell(r.throughput_rps, 0)
        .end_row();
    csv.add_row({s.name, std::to_string(r.completed), std::to_string(r.failed),
                 format_double(served, 2), format_double(r.throughput_rps, 1)});
  }
  t.print(std::cout);
  std::cout << "\nPaper expectation: only the LARD front-end crash takes the whole\n"
               "service down; every other single-node loss is absorbed.\n";
  return 0;
}
