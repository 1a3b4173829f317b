// The traditional locality-oblivious server: requests are assigned with a
// fewest-connections scheme (an idealized load-balancing switch with exact
// instantaneous load knowledge) and every node services what it receives
// from its own cache/disk — no forwarding, no shared cache state.
#pragma once

#include <cstdint>
#include <vector>

#include "l2sim/policy/policy.hpp"

namespace l2s::policy {

class TraditionalPolicy final : public Policy {
 public:
  [[nodiscard]] const char* name() const override { return "traditional"; }

  void attach(const ClusterContext& ctx) override;

  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override;

  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override;

  /// The load-balancing switch health-checks its pool: a detected-dead
  /// node drops out of the fewest-connections choice.
  void on_node_failed(int node) override;

  /// A recovered node rejoins the pool (its zero connection count makes it
  /// the fewest-connections favourite until it warms up).
  void on_node_recovered(int node) override;

 private:
  ClusterContext ctx_;
  std::vector<std::uint8_t> down_;  ///< 1 for a node the switch took out
};

}  // namespace l2s::policy
