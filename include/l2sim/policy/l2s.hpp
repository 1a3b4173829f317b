// L2S — the Locality and Load balancing Server (Section 4 of the paper).
//
// Fully distributed: every node accepts (via round-robin DNS), parses,
// distributes and services requests. Each node keeps its own replica of
// the per-file server sets and a (stale) view of all nodes' loads, both
// maintained by VIA broadcasts:
//
//   * the initial node services a request itself if it is not overloaded
//     (load <= T) and it caches the file or the file was never requested;
//   * otherwise the least-loaded member of the file's server set services
//     it, unless both the initial node and that member are overloaded, in
//     which case the overall least-loaded node joins the server set;
//   * server sets shrink (most-loaded member dropped) when the chosen node
//     is underloaded (load < t), the set has more than one member, and the
//     set has not changed for a while;
//   * a node broadcasts its load when it drifted >= broadcast_delta (4)
//     connections from the last broadcast value; server-set changes are
//     broadcast by the node that made them.
//
// Defaults are the paper's simulation settings: T = 20, t = 10, delta = 4.
#pragma once

#include <vector>

#include "l2sim/cluster/load_tracker.hpp"
#include "l2sim/policy/policy.hpp"
#include "l2sim/policy/server_set.hpp"

namespace l2s::policy {

struct L2sParams {
  int overload_threshold = 20;   ///< T
  int underload_threshold = 10;  ///< t
  int broadcast_delta = 4;       ///< connections of drift before broadcasting
  /// How many connections more loaded than the best server-set member the
  /// initial node may be and still service a cached file locally (avoiding
  /// the hand-off). Half a broadcast quantum by default.
  int local_bias = 2;
  double set_shrink_seconds = 20.0;
  /// When true, least-loaded selections pick uniformly between the two
  /// lowest candidates instead of strictly the lowest — damping the herd
  /// effect of many deciders acting on equally stale views (ablation knob;
  /// the paper's algorithm is strict, which is the default).
  bool herd_damping = false;
};

class L2sPolicy final : public Policy {
 public:
  explicit L2sPolicy(L2sParams params = {});

  [[nodiscard]] const char* name() const override { return "l2s"; }

  void attach(const ClusterContext& ctx) override;

  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override;
  [[nodiscard]] bool entry_is_dns() const override { return true; }
  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override;
  [[nodiscard]] SimTime forward_cpu_time(int entry) const override;
  void on_service_start(int node, const trace::Request& r) override;
  void on_complete(int node, const trace::Request& r) override;
  void on_connection_migrated(int from, int to, const trace::Request& r) override;

  /// Survivors mark the dead peer infinitely loaded in their views and
  /// DNS drops it from the entry rotation; server sets heal themselves
  /// because an "overloaded" dead member triggers replication elsewhere.
  void on_node_failed(int node) override;

  /// The restarted node rejoins with blank replicated state (cold cache,
  /// empty server sets, current membership only); survivors zero their
  /// view of it and DNS resumes routing clients there.
  void on_node_recovered(int node) override;

  /// Brownout level >= 1 sheds forwarding: requests are serviced at their
  /// entry node, skipping the server-set machinery entirely (no hand-offs,
  /// no set growth, no set-change broadcasts) — locality is sacrificed to
  /// shed the distribution overhead while the cluster is overloaded.
  void on_brownout(int level) override { brownout_level_ = level; }

  /// Node `owner`'s view of node `target`'s load (for tests).
  [[nodiscard]] int view_of(int owner, int target) const;
  /// Node `owner`'s replica of the file's server set (for tests).
  [[nodiscard]] const std::vector<int>& server_set_of(int owner,
                                                      storage::FileId file) const;

 private:
  struct NodeState {
    cluster::LoadView view{1};
    cluster::BroadcastThrottle throttle{4};
  };

  void maybe_broadcast_load(int node);
  void broadcast_set_change(int origin, storage::FileId file);

  /// Random pick between the two least-loaded candidates (herd damping
  /// across distributed deciders working from stale views).
  [[nodiscard]] int pick_low(const cluster::LoadView& view, const std::vector<int>& candidates);
  [[nodiscard]] int pick_low_all(const cluster::LoadView& view);

  [[nodiscard]] NodeState& state(int node) { return states_[static_cast<std::size_t>(node)]; }
  [[nodiscard]] const NodeState& state(int node) const {
    return states_[static_cast<std::size_t>(node)];
  }

  L2sParams params_;
  ClusterContext ctx_;
  std::vector<NodeState> states_;
  ServerSetMap sets_;  ///< replica n is node n's copy of the server sets
  std::vector<int> all_nodes_;
  DnsRotation dns_;
  std::uint64_t rng_state_ = 0x2545f4914f6cdd1dULL;
  SimTime shrink_ns_ = 0;
  int brownout_level_ = 0;
};

}  // namespace l2s::policy
