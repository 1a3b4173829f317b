// Network timing parameters (Section 5.1 of the paper).
//
// The cluster interconnect is Gigabit Ethernet driven through M-VIA:
// sending a 4-byte message takes 19 us one way — 3 us CPU on each side,
// 6 us NIC on each side, and 1 us of switch latency. Links peak at
// 1 Gbit/s; the router to the Internet is a 4 Gbit/s-class device
// (mu_r = 500000/size ops/s with size in KBytes).
#pragma once

#include "l2sim/common/units.hpp"

namespace l2s::net {

struct NetParams {
  double link_bits_per_s = 1e9;        ///< cluster link bandwidth
  double nic_msg_overhead_s = 6e-6;    ///< per VIA message per NIC
  double cpu_msg_overhead_s = 3e-6;    ///< per VIA message per CPU side
  double switch_latency_s = 1e-6;      ///< fabric latency (contention-free)
  double ni_request_rate = 140000.0;   ///< mu_i: client request receive rate
  double ni_reply_overhead_s = 3e-6;   ///< mu_o fixed term for replies
  double router_kb_per_s = 500000.0;   ///< mu_r: router service capacity

  /// Service time of a NIC moving `bytes` of payload with VIA overheads.
  [[nodiscard]] SimTime nic_transfer_time(Bytes bytes) const {
    return seconds_to_simtime(nic_msg_overhead_s +
                              transfer_seconds(bytes, link_bits_per_s));
  }

  /// Service time of the NI-in queue for a client request (mu_i).
  [[nodiscard]] SimTime ni_request_time() const {
    return seconds_to_simtime(1.0 / ni_request_rate);
  }

  /// Service time of the NI-out queue for a reply of `bytes` (mu_o).
  [[nodiscard]] SimTime ni_reply_time(Bytes bytes) const {
    return seconds_to_simtime(ni_reply_overhead_s +
                              transfer_seconds(bytes, link_bits_per_s));
  }

  /// Service time of the router for `bytes` (mu_r).
  [[nodiscard]] SimTime router_time(Bytes bytes) const {
    return seconds_to_simtime(bytes_to_kib(bytes) / router_kb_per_s);
  }

  [[nodiscard]] SimTime switch_latency() const {
    return seconds_to_simtime(switch_latency_s);
  }

  [[nodiscard]] SimTime cpu_msg_time() const {
    return seconds_to_simtime(cpu_msg_overhead_s);
  }
};

}  // namespace l2s::net
