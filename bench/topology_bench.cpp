// Topology-substrate bench — the flow-mode event-cut gate.
//
// A forwarding-heavy 256-node cell (32 KB responses over a 16-rack
// oversubscribed fabric segmented at 512 B) runs twice: message-mode
// store-and-forward vs flow-level max-min transfers. Flow mode replaces
// the per-segment event cascade with one fluid flow per transfer, and
// must cut total scheduled events by >= 5x.
//
// Emits BENCH_topology.json; exits non-zero if the gate fails.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "gate_report.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/l2sim.hpp"
#include "l2sim/obs/link_introspection.hpp"

using namespace l2s;

namespace {

struct ModeRow {
  std::string mode;
  std::uint64_t events = 0;
  std::uint64_t traversals = 0;
  std::string digest;
  double throughput_rps = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_topology.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  const double scale = bench_scale();

  // Forwarding-heavy: LARD on a cold-ish 256-node cluster forwards most
  // requests, and 32 KB responses ride the backend-forwarding path as bulk
  // transfers. Message mode segments each one at 512 B per
  // store-and-forward hop; flow mode schedules one rate-shared flow.
  trace::SyntheticSpec spec;
  spec.name = "topo-forwarding";
  spec.files = 400;
  spec.avg_file_kb = 32.0;
  // 256 nodes hold a wide admission window; the trace must outlast the
  // window's worth of first requests or the persistent follow-ups (the
  // bulk-transfer remote fetches being measured) never materialize. 24k
  // requests yield ~14k remote fetches; L2SIM_SCALE may grow but never
  // shrink the trace below that validated geometry.
  spec.requests = static_cast<std::uint64_t>(24000.0 * std::max(1.0, scale));
  spec.avg_request_kb = 32.0;
  spec.alpha = 0.9;
  spec.seed = 77;
  const trace::Trace tr = trace::generate(spec);

  core::SimConfig base;
  base.nodes = 256;
  base.node.cache_bytes = 4 * kMiB;
  base.persistence.mean_requests_per_connection = 4.0;
  base.persistence.mode = core::PersistentMode::kBackendForwarding;
  base.topology.kind = net::TopologyKind::kRackAware;
  base.topology.racks = 16;
  base.topology.segment_bytes = 512;

  std::cout << "Topology bench (" << base.nodes << " nodes, " << base.topology.racks
            << " racks, " << tr.request_count() << " requests, L2SIM_SCALE=" << scale
            << ")\n\n";

  auto run_mode = [&](bool flow_level) {
    core::SimConfig cfg = base;
    cfg.topology.flow_level = flow_level;
    ModeRow row;
    row.mode = flow_level ? "flow" : "message";
    core::ClusterSimulation sim(cfg, tr, core::make_policy(core::PolicyKind::kLard));
    const core::SimResult r = sim.run();
    row.events = sim.scheduler().events_processed();
    row.traversals = sim.topology().traversals();
    row.digest = core::result_digest_hex(r);
    row.throughput_rps = r.throughput_rps;
    if (flow_level) {
      // The per-link picture of the flow-mode run: utilization, carried
      // bytes and the rack-pair hop/latency matrix.
      std::cout << "flow-mode link report:\n";
      obs::write_topology_report(std::cout, sim.topology(), sim.scheduler().now());
      std::cout << "\n";
    }
    return row;
  };

  const ModeRow message = run_mode(false);
  const ModeRow flow = run_mode(true);
  const double event_cut = static_cast<double>(message.events) /
                           static_cast<double>(std::max<std::uint64_t>(1, flow.events));

  TextTable modes({"Mode", "Events", "Traversals", "Throughput rps", "Digest"});
  for (const ModeRow* row : {&message, &flow}) {
    modes.cell(row->mode)
        .cell(static_cast<long long>(row->events))
        .cell(static_cast<long long>(row->traversals))
        .cell(row->throughput_rps, 0)
        .cell(row->digest)
        .end_row();
  }
  modes.print(std::cout);
  std::cout << "\nflow-mode event cut: " << format_double(event_cut, 2) << "x\n";

  const std::vector<benchgate::Gate> gates = {
      {"flow_mode_event_cut_5x", event_cut >= 5.0,
       "message-mode " + std::to_string(message.events) + " events vs flow-mode " +
           std::to_string(flow.events) + " = " + format_double(event_cut, 2) +
           "x (need >= 5x)"}};

  return benchgate::finish("topology_bench", out_path, gates, [&](std::ostream& out) {
    out << "{\n"
        << "  \"bench\": \"topology\",\n"
        << "  \"scale\": " << format_double(scale, 3) << ",\n"
        << "  \"nodes\": " << base.nodes << ",\n"
        << "  \"racks\": " << base.topology.racks << ",\n"
        << "  \"segment_bytes\": " << base.topology.segment_bytes << ",\n"
        << "  \"request_count\": " << tr.request_count() << ",\n"
        << "  \"flow\": {\n"
        << "    \"message_events\": " << message.events << ",\n"
        << "    \"flow_events\": " << flow.events << ",\n"
        << "    \"message_traversals\": " << message.traversals << ",\n"
        << "    \"flow_traversals\": " << flow.traversals << ",\n"
        << "    \"event_cut\": " << format_double(event_cut, 3) << ",\n"
        << "    \"message_digest\": \"" << message.digest << "\",\n"
        << "    \"flow_digest\": \"" << flow.digest << "\"\n"
        << "  },\n";
  });
}
