#include "l2sim/obs/link_introspection.hpp"

#include <ostream>
#include <vector>

#include "l2sim/common/table.hpp"
#include "l2sim/net/link.hpp"
#include "l2sim/telemetry/registry.hpp"

namespace l2s::obs {

namespace {

/// First node of each rack, in rack order — the representative the
/// rack-pair matrix probes (latency and hop count are rack-uniform for
/// every topology we ship, so one probe per pair suffices).
[[nodiscard]] std::vector<int> rack_representatives(const net::Topology& topo) {
  std::vector<int> rep(static_cast<std::size_t>(topo.racks()), -1);
  for (int n = 0; n < topo.nodes(); ++n) {
    const auto r = static_cast<std::size_t>(topo.rack_of(n));
    if (r < rep.size() && rep[r] < 0) rep[r] = n;
  }
  return rep;
}

}  // namespace

void export_link_utilization(telemetry::Registry& registry,
                             const net::Topology& topo, SimTime elapsed) {
  registry.counter("net.traversals").add(topo.traversals());
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const net::Link& link = topo.link(i);
    const telemetry::Labels label = {{"link", link.name()}};
    registry.gauge("net.link.utilization", label).set(link.utilization(elapsed));
    registry.gauge("net.link.flow_utilization", label)
        .set(link.flow_utilization(elapsed));
    registry.counter("net.link.transfers", label).add(link.transfers());
    registry.counter("net.link.bytes", label).add(link.bytes_carried());
  }
}

void write_topology_report(std::ostream& out, const net::Topology& topo,
                           SimTime elapsed) {
  out << "topology: " << topo.name() << ", " << topo.nodes() << " nodes, "
      << topo.racks() << " racks, " << topo.link_count() << " links, "
      << topo.traversals() << " traversals\n\n";

  if (topo.link_count() > 0) {
    TextTable links({"Link", "Gbit/s", "Transfers", "MBytes", "Util %", "Flow util %"});
    for (std::size_t i = 0; i < topo.link_count(); ++i) {
      const net::Link& link = topo.link(i);
      links.cell(link.name())
          .cell(link.bits_per_s() / 1e9, 1)
          .cell(static_cast<long long>(link.transfers()))
          .cell(static_cast<double>(link.bytes_carried()) / 1e6, 2)
          .cell(100.0 * link.utilization(elapsed), 1)
          .cell(100.0 * link.flow_utilization(elapsed), 1)
          .end_row();
    }
    links.print(out);
    out << '\n';
  }

  // Rack-pair distance matrix: hop count and minimum latency between one
  // representative node of each rack.
  const std::vector<int> rep = rack_representatives(topo);
  if (rep.size() > 1) {
    std::vector<std::string> header = {"rack\\rack"};
    for (std::size_t b = 0; b < rep.size(); ++b) header.push_back(std::to_string(b));
    TextTable matrix(std::move(header));
    for (std::size_t a = 0; a < rep.size(); ++a) {
      matrix.cell(std::to_string(a));
      for (std::size_t b = 0; b < rep.size(); ++b) {
        if (rep[a] < 0 || rep[b] < 0) {
          matrix.cell("-");
          continue;
        }
        const int hops = topo.hops(rep[a], rep[b]);
        const double us = simtime_to_seconds(topo.min_latency(rep[a], rep[b])) * 1e6;
        matrix.cell(std::to_string(hops) + "h/" + format_double(us, 1) + "us");
      }
      matrix.end_row();
    }
    matrix.print(out);
  }
}

}  // namespace l2s::obs
