// Persistent-connection (HTTP/1.1) study — the extension the paper points
// to at the end of Section 4 ("persistent connections can be handled by
// slightly modifying the algorithms"), using the two mechanisms of Aron
// et al.: connection hand-off vs back-end request forwarding.
//
// Findings this harness demonstrates: with IID request streams, sticky
// connections *hurt* — consecutive requests of a connection are unrelated,
// so most need a migration (hand-off mode) or a bulk content fetch
// (back-end forwarding). With temporally correlated clients (the
// temporal_locality knob) the picture improves because repeats often live
// where the connection already sits. Hand-off preserves cache locality;
// back-end forwarding trades it for connection stability and pays with
// cluster-network bytes, so hand-off wins as files grow — Aron et al.'s
// conclusion.
#include <iostream>
#include <string>

#include "l2sim/l2sim.hpp"

using namespace l2s;

int main(int argc, char** argv) {
  const double scale = bench_scale();
  const std::string dir = csv_dir_from_args(argc, argv);
  std::cout << "Persistent connections: L2S on synthetic Calgary, 16 nodes "
            << "(L2SIM_SCALE=" << scale << ")\n\n";

  CsvWriter csv(dir, "persistent_study",
                {"workload", "mode", "rpc", "rps", "forwarded", "migrations", "fetches"});
  for (const double pt : {0.0, 0.6}) {
  auto spec = trace::paper_trace_spec("Calgary");
  spec.temporal_locality = pt;
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);
  const std::string workload = pt == 0.0 ? "iid" : "temporal";
  std::cout << "--- workload: " << workload << " (temporal_locality=" << pt << ") ---\n";
  for (const auto mode :
       {core::PersistentMode::kConnectionHandoff, core::PersistentMode::kBackendForwarding}) {
    const char* mode_name =
        mode == core::PersistentMode::kConnectionHandoff ? "hand-off" : "backend-fwd";
    TextTable t({"Req/conn", "Throughput", "Forwarded (%)", "Migrations", "Fetches",
                 "Mean resp (ms)"});
    for (const double rpc : {1.0, 2.0, 4.0, 8.0, 16.0}) {
      core::SimConfig cfg;
      cfg.nodes = 16;
      cfg.node.cache_bytes = 32 * kMiB;
      cfg.persistence.mean_requests_per_connection = rpc;
      cfg.persistence.mode = mode;
      policy::L2sParams params;
      params.set_shrink_seconds = 20.0 * scale;
      core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>(params));
      const auto r = sim.run();
      t.cell(rpc, 0)
          .cell(r.throughput_rps, 0)
          .cell(r.forwarded_fraction * 100.0, 1)
          .cell(static_cast<long long>(r.migrations))
          .cell(static_cast<long long>(r.remote_fetches))
          .cell(r.mean_response_ms, 1)
          .end_row();
      csv.add_row({workload, mode_name, format_double(rpc, 0),
                   format_double(r.throughput_rps, 1),
                   format_double(r.forwarded_fraction, 4), std::to_string(r.migrations),
                   std::to_string(r.remote_fetches)});
    }
    std::cout << "mode: " << mode_name << "\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  }
  return 0;
}
