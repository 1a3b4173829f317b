// Topology introspection surface: lift a net::Topology's per-link
// accounting (message-mode utilization, flow-mode bits, bytes carried)
// into telemetry metrics and a human-readable report.
// Reading a topology is strictly passive — no events, no state changes —
// so exporting is digest-inert by construction.
#pragma once

#include <iosfwd>

#include "l2sim/common/units.hpp"
#include "l2sim/net/topology.hpp"

namespace l2s::telemetry {
class Registry;
}

namespace l2s::obs {

/// Export the topology's link accounting into `registry`:
///   net.link.utilization{link}       gauge  message-mode busy fraction
///   net.link.flow_utilization{link}  gauge  flow-mode mean utilization
///   net.link.transfers{link}         counter  message-mode transfers
///   net.link.bytes{link}             counter  message-mode bytes carried
///   net.traversals                   counter  end-to-end paths traversed
/// `elapsed` is the measured interval the utilizations are taken over.
/// No-op (beyond net.traversals) for link-free topologies (single switch).
void export_link_utilization(telemetry::Registry& registry,
                             const net::Topology& topo, SimTime elapsed);

/// Human-readable topology report: per-link utilization table plus the
/// rack-pair hop/latency matrix (which pairs ride which distance class).
void write_topology_report(std::ostream& out, const net::Topology& topo,
                           SimTime elapsed);

}  // namespace l2s::obs
