// DNS-caching imbalance study (Section 2): intermediate name servers cache
// round-robin DNS answers, so client populations pile onto a few nodes.
// A plain RR-DNS server cannot compensate; L2S redistributes work inside
// the cluster, so its throughput should hold while the naive server's
// collapses as the skew grows.
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"
#include "l2sim/policy/round_robin.hpp"

using namespace l2s;

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "DNS-translation caching skew (synthetic Calgary, 16 nodes, "
            << "L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);

  CsvWriter csv(dir, "dns_skew_study",
                {"skew", "l2s_rps", "l2s_cov", "rrdns_rps", "rrdns_cov"});
  TextTable t({"Skew", "L2S req/s", "L2S load CoV", "RR-DNS req/s", "RR-DNS load CoV"});
  for (const double skew : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    core::SimConfig cfg;
    cfg.nodes = 16;
    cfg.node.cache_bytes = 32 * kMiB;
    cfg.arrival.dns_entry_skew = skew;

    policy::L2sParams params;
    params.set_shrink_seconds = 20.0 * scale;
    core::ClusterSimulation l2s_sim(cfg, tr, std::make_unique<policy::L2sPolicy>(params));
    const auto l2s_r = l2s_sim.run();

    core::ClusterSimulation rr_sim(cfg, tr, std::make_unique<policy::RoundRobinPolicy>());
    const auto rr_r = rr_sim.run();

    t.cell(skew, 1)
        .cell(l2s_r.throughput_rps, 0)
        .cell(l2s_r.load_cov, 3)
        .cell(rr_r.throughput_rps, 0)
        .cell(rr_r.load_cov, 3)
        .end_row();
    csv.add_row({format_double(skew, 2), format_double(l2s_r.throughput_rps, 1),
                 format_double(l2s_r.load_cov, 4), format_double(rr_r.throughput_rps, 1),
                 format_double(rr_r.load_cov, 4)});
  }
  t.print(std::cout);
  std::cout << "\nExpectation: L2S holds its throughput (forwarding redistributes the\n"
               "work of skewed entries) while the naive RR-DNS server degrades.\n";
  return 0;
}
