// Consistent-hash request routing — the content-aware scheme most modern
// load balancers ship. Each node owns `virtual_nodes` points on a hash
// ring; a file is served by the owner of the first point clockwise from
// its hash. Perfect locality with zero coordination state, but no load
// feedback: hot files pin their owner (the imbalance Section 3.2 warns
// about), which is exactly the gap L2S's server sets close. On a node
// failure only ~1/N of the keys remap (to the ring successors) — the
// property that made the scheme popular — and they move back when the
// node recovers.
#pragma once

#include <map>
#include <vector>

#include "l2sim/policy/policy.hpp"

namespace l2s::policy {

class ConsistentHashPolicy final : public Policy {
 public:
  explicit ConsistentHashPolicy(int virtual_nodes = 128);

  [[nodiscard]] const char* name() const override { return "consistent-hash"; }

  void attach(const ClusterContext& ctx) override;

  /// Round-robin DNS front door (like L2S).
  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override;
  [[nodiscard]] bool entry_is_dns() const override { return true; }

  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override;
  [[nodiscard]] SimTime forward_cpu_time(int entry) const override;
  void on_node_failed(int node) override;
  void on_node_recovered(int node) override;
  void on_pass_start(int pass) override;

  /// Ring owner of a file (exposed for tests).
  [[nodiscard]] int owner_of(storage::FileId file) const;
  [[nodiscard]] std::size_t ring_points() const { return ring_.size(); }

 private:
  /// Put `node`'s `virtual_nodes_` points on the ring.
  void add_points(int node);

  int virtual_nodes_;
  ClusterContext ctx_;
  std::map<std::uint64_t, int> ring_;  ///< hash point -> node
  DnsRotation dns_;
  std::uint64_t rotation_ = 0;
};

}  // namespace l2s::policy
