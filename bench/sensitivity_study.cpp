// Section 5.2 "summary of other simulation results": the performance of
// L2S is only slightly affected by reasonable settings of broadcast
// frequency, messaging overhead, and network latency and bandwidth.
//
// This harness perturbs each of those parameters around the defaults on a
// 16-node cluster and reports L2S throughput, which should stay within a
// narrow band of the baseline.
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"

using namespace l2s;

namespace {

core::SimResult run_l2s(const trace::Trace& tr, const core::SimConfig& cfg, double shrink,
                        int broadcast_delta) {
  policy::L2sParams p;
  p.set_shrink_seconds = shrink;
  p.broadcast_delta = broadcast_delta;
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>(p));
  return sim.run();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const double shrink = 20.0 * scale;
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "L2S sensitivity study (synthetic Calgary, 16 nodes, "
            << "L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);

  core::SimConfig base;
  base.nodes = 16;
  base.node.cache_bytes = 32 * kMiB;

  const double baseline = run_l2s(tr, base, shrink, 4).throughput_rps;
  std::cout << "baseline throughput: " << format_double(baseline, 0) << " req/s\n\n";

  CsvWriter csv(dir, "sensitivity_study", {"knob", "value", "rps", "vs_baseline"});
  TextTable t({"Knob", "Value", "Throughput", "vs baseline"});
  auto row = [&](const std::string& knob, const std::string& value, double rps) {
    t.cell(knob).cell(value).cell(rps, 0).cell(format_double(rps / baseline, 3) + "x").end_row();
    csv.add_row({knob, value, format_double(rps, 1), format_double(rps / baseline, 4)});
  };

  // Broadcast frequency: drift threshold 2..16 connections.
  for (const int delta : {2, 8, 16}) {
    row("broadcast delta", std::to_string(delta),
        run_l2s(tr, base, shrink, delta).throughput_rps);
  }

  // Messaging overhead: half / double the M-VIA per-message CPU+NIC costs.
  for (const double factor : {0.5, 2.0}) {
    core::SimConfig cfg = base;
    cfg.net.cpu_msg_overhead_s *= factor;
    cfg.net.nic_msg_overhead_s *= factor;
    row("msg overhead", format_double(factor, 1) + "x",
        run_l2s(tr, cfg, shrink, 4).throughput_rps);
  }

  // Switch latency: 1 us default -> 5 us, 20 us.
  for (const double lat_us : {5.0, 20.0}) {
    core::SimConfig cfg = base;
    cfg.net.switch_latency_s = lat_us * 1e-6;
    row("switch latency", format_double(lat_us, 0) + " us",
        run_l2s(tr, cfg, shrink, 4).throughput_rps);
  }

  // Link bandwidth: 0.5 and 2 Gbit/s.
  for (const double gbps : {0.5, 2.0}) {
    core::SimConfig cfg = base;
    cfg.net.link_bits_per_s = gbps * 1e9;  // mu_o's slope follows the link
    row("link bandwidth", format_double(gbps, 1) + " Gb/s",
        run_l2s(tr, cfg, shrink, 4).throughput_rps);
  }

  t.print(std::cout);
  std::cout << "\nPaper finding: L2S is only slightly affected by reasonable\n"
               "broadcast frequencies, messaging overheads, and network latency\n"
               "and bandwidth.\n";
  return 0;
}
