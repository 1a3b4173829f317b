// Request-distribution policy interface.
//
// The simulation core drives a single request lifecycle; policies decide
// (a) which node a client connection arrives at (the front door: RR-DNS,
// fewest-connections switch, or a dedicated front-end), and (b) which node
// services a parsed request. Policies may send VIA messages (load and
// locality dissemination) through the context.
#pragma once

#include <cstdint>
#include <vector>

#include "l2sim/cluster/node.hpp"
#include "l2sim/des/scheduler.hpp"
#include "l2sim/net/via.hpp"
#include "l2sim/trace/trace.hpp"

namespace l2s::policy {

/// Policy-level counters: broadcasts sent, server-set changes, dispatcher
/// traffic. Each policy bumps the fields it has; the rest stay zero.
struct PolicyCounters {
  std::uint64_t load_broadcasts = 0;
  std::uint64_t locality_broadcasts = 0;
  std::uint64_t set_create = 0;
  std::uint64_t set_grow = 0;
  std::uint64_t set_shrink = 0;
  std::uint64_t load_updates = 0;
  std::uint64_t dispatcher_queries = 0;
  std::uint64_t front_end_failover = 0;
};

/// Everything a policy may touch. Owned by the simulation; valid for the
/// policy's lifetime after attach().
struct ClusterContext {
  des::Scheduler* sched = nullptr;
  net::ViaNetwork* via = nullptr;
  std::vector<cluster::Node*> nodes;
  Bytes control_msg_bytes = 16;  ///< payload of load/locality updates

  [[nodiscard]] int node_count() const { return static_cast<int>(nodes.size()); }
  [[nodiscard]] cluster::Node& node(int i) const { return *nodes[static_cast<std::size_t>(i)]; }
};

/// Round-robin DNS over the nodes it believes alive, shared by the
/// DNS-fronted policies: a failed node leaves the rotation and a recovered
/// one rejoins it. While every node is down the rotation keeps answering
/// with the last node to go down, so clients fail fast against it, and the
/// first recovery ends that state.
class DnsRotation {
 public:
  /// Every node in [0, nodes) in rotation.
  void reset(int nodes);

  /// Entry node of the `seq`-th client connection.
  [[nodiscard]] int pick(std::uint64_t seq) const;
  /// Whether DNS hands out `node`'s address.
  [[nodiscard]] bool contains(int node) const;

  void remove(int node);
  void add(int node);

 private:
  std::vector<int> alive_;  ///< sorted
  int last_down_ = -1;      ///< answered while `alive_` is empty
};

class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Called once, after the cluster is built.
  virtual void attach(const ClusterContext& ctx) = 0;

  /// Called at the start of each trace replay (warm-up and measured pass).
  /// Lets DNS-style front doors re-randomize their client-to-node mapping
  /// so a replayed trace does not land on exactly the same nodes as the
  /// warm-up (real request streams never replay verbatim).
  virtual void on_pass_start(int pass);

  /// Node at which the client's connection arrives.
  [[nodiscard]] virtual int entry_node(std::uint64_t seq, const trace::Request& r) = 0;

  /// True when the front door is DNS-based (clients pick the node), which
  /// makes it subject to DNS-translation caching skew; false for
  /// server-side dispatchers (load-balancing switch, dedicated front-end).
  [[nodiscard]] virtual bool entry_is_dns() const { return false; }

  /// Distribution decision, made on `entry` after the request is parsed.
  [[nodiscard]] virtual int select_service_node(int entry, const trace::Request& r) = 0;

  /// Policies whose decision involves communication (e.g. querying a
  /// dispatcher node) return true and implement the asynchronous variant;
  /// the lifecycle then waits for `done(target)` instead of calling
  /// select_service_node(). Passing a negative target to `done` signals
  /// that no decision could be made (the request fails).
  [[nodiscard]] virtual bool decides_asynchronously() const { return false; }
  virtual void select_service_node_async(int entry, const trace::Request& r,
                                         std::function<void(int target)> done);

  /// CPU time `entry` spends initiating a hand-off when the service node
  /// differs from the entry node.
  [[nodiscard]] virtual SimTime forward_cpu_time(int entry) const;

  /// The request entered service at `node` (its open-connection count was
  /// just incremented). Default: no-op.
  virtual void on_service_start(int node, const trace::Request& r);

  /// The request completed at `node` (count already decremented).
  virtual void on_complete(int node, const trace::Request& r);

  // --- persistent (HTTP/1.1-style) connections ---------------------------

  /// Distribution decision for a subsequent request on a persistent
  /// connection currently parked at `current`. Default: the normal
  /// decision with `current` acting as the initial node.
  [[nodiscard]] virtual int select_next_in_connection(int current, const trace::Request& r);

  /// A persistent connection migrated between nodes (connection hand-off
  /// mode); counts were already moved by the lifecycle. Default: no-op.
  virtual void on_connection_migrated(int from, int to, const trace::Request& r);

  /// The cluster detected that `node` crashed (after the failure-detection
  /// delay). Policies must stop selecting it. Default: no-op.
  virtual void on_node_failed(int node);

  /// A failure detector *suspects* `node` (it may be dead, slow, or merely
  /// unlucky with heartbeats). Default: treat like a confirmed failure —
  /// conservative policies can override to react differently.
  virtual void on_node_suspected(int node);

  /// A previously failed/suspected node is serving again (restarted, cold
  /// cache, or a suspicion proved false). Policies should resume selecting
  /// it. Default: no-op.
  virtual void on_node_recovered(int node);

  /// The overload controller changed the brownout level. Policies should
  /// shed their own overhead progressively: at level >= 1 drop
  /// locality-driven forwarding (serve where the request lands, stop
  /// replicating/migrating), level 2 additionally has the controller shed
  /// arrivals outright. Level 0 restores normal operation. Default: no-op
  /// — a policy that ignores brownout just keeps paying forwarding costs.
  virtual void on_brownout(int level);

  [[nodiscard]] const PolicyCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 protected:
  PolicyCounters counters_;
};

}  // namespace l2s::policy
