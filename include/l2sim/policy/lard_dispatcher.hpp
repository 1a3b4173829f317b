// The follow-up LARD design the paper discusses in Related Work [4]:
// "the request distribution algorithm is centralized at a 'dispatcher'
// node, but client connections can be accepted by all the other cluster
// nodes. A client connection is assigned to a node by a simple
// load-balancing switch, the chosen node then queries the dispatcher, and
// hands off the connection to the node determined by it."
//
// Compared with the original LARD front-end this removes the accept/parse
// bottleneck (the dispatcher only answers small queries), but — as the
// paper points out — the dispatcher (a) remains a (milder) bottleneck and
// point of failure, (b) still wastes its cache space, and (c) forces every
// request through a two-way query.
#pragma once

#include <vector>

#include "l2sim/cluster/load_tracker.hpp"
#include "l2sim/policy/lard.hpp"

namespace l2s::policy {

class LardDispatcherPolicy final : public Policy {
 public:
  explicit LardDispatcherPolicy(LardParams params = {});

  [[nodiscard]] const char* name() const override { return "lard-dispatcher"; }

  void attach(const ClusterContext& ctx) override;

  /// Connections are accepted by the serving nodes (1..N-1) through a
  /// load-balancing switch; the dispatcher (node 0) accepts none.
  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override;

  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override;
  [[nodiscard]] bool decides_asynchronously() const override { return true; }
  void select_service_node_async(int entry, const trace::Request& r,
                                 std::function<void(int)> done) override;

  [[nodiscard]] SimTime forward_cpu_time(int entry) const override;
  void on_complete(int node, const trace::Request& r) override;
  void on_node_failed(int node) override;
  void on_node_recovered(int node) override;

  [[nodiscard]] static constexpr int dispatcher() { return 0; }

 private:
  /// LARD/R over the serving nodes, computed with the dispatcher's tables.
  [[nodiscard]] int decide(storage::FileId file);
  [[nodiscard]] int least_loaded_server() const;
  [[nodiscard]] bool any_server_below(int threshold) const;

  LardParams params_;
  ClusterContext ctx_;
  cluster::LoadView view_{1};
  ServerSetMap sets_;  ///< one replica, 0: the dispatcher's table
  std::vector<int> completions_since_update_;
  std::vector<bool> down_;
  SimTime shrink_ns_ = 0;
  SimTime decision_time_ = 0;
};

}  // namespace l2s::policy
