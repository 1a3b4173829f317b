// LARD (Locality-Aware Request Distribution) with replication, after
// Pai et al. [ASPLOS-8], as simulated by the paper for comparison.
//
// Node 0 is a dedicated front-end: it accepts and parses every client
// request, runs the LARD/R algorithm over its (slightly stale) view of the
// back-ends' open-connection counts, and hands the connection off. The
// front-end neither services requests nor contributes cache space. A
// back-end notifies the front-end after every `update_batch` (4) completed
// connections — the same update frequency the paper found best.
//
// LARD/R (with the original parameters T_low = 25, T_high = 65, K = 20 s):
//   if the target's server set is empty: assign the least-loaded back-end;
//   otherwise pick the least-loaded member n, and if
//   (load(n) > T_high and some back-end is below T_low) or
//   load(n) >= 2 * T_high, add the overall least-loaded back-end;
//   if the set has not changed for K seconds and has more than one member,
//   drop its most-loaded member.
#pragma once

#include <vector>

#include "l2sim/cluster/load_tracker.hpp"
#include "l2sim/policy/policy.hpp"
#include "l2sim/policy/server_set.hpp"

namespace l2s::policy {

struct LardParams {
  int t_low = 25;
  int t_high = 65;
  double set_shrink_seconds = 20.0;  ///< K
  int update_batch = 4;              ///< completions per load update message

  /// Warm-spare front-end failover: when the front-end is declared failed,
  /// promote the least-loaded live back-end to front-end duty. Off by
  /// default — the paper's LARD keeps its single point of failure; turning
  /// this on converts the SPOF into a time-to-recover window.
  bool front_end_failover = false;
};

class LardPolicy final : public Policy {
 public:
  explicit LardPolicy(LardParams params = {});

  [[nodiscard]] const char* name() const override { return "lard"; }

  void attach(const ClusterContext& ctx) override;

  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override;
  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override;
  [[nodiscard]] SimTime forward_cpu_time(int entry) const override;
  void on_complete(int node, const trace::Request& r) override;

  /// Persistent connections: the back-end consults the front-end's tables
  /// (the "dispatcher" design of the follow-up LARD work) — the decision
  /// is the same LARD/R computation.
  [[nodiscard]] int select_next_in_connection(int current, const trace::Request& r) override;
  void on_connection_migrated(int from, int to, const trace::Request& r) override;

  /// A dead back-end leaves the candidate pool (its server-set entries are
  /// sidestepped via an infinite load view). A dead front-end is fatal
  /// unless `front_end_failover` is on, in which case a back-end is
  /// promoted — the single point of failure the paper criticizes becomes a
  /// detection-plus-promotion window.
  void on_node_failed(int node) override;

  /// A recovered node rejoins as a (cold) back-end, even if it used to be
  /// the front-end: the promoted replacement keeps the role.
  void on_node_recovered(int node) override;

  /// Brownout level >= 1 sheds the locality machinery's churn: server sets
  /// stop growing and shrinking, and persistent connections stop migrating
  /// — the front-end still forwards (it services nothing itself) but each
  /// connection stays where it is until the overload clears.
  void on_brownout(int level) override { brownout_level_ = level; }

  /// Initial front-end (node 0). The role can migrate under failover; see
  /// current_front_end().
  [[nodiscard]] static constexpr int front_end() { return 0; }
  [[nodiscard]] int current_front_end() const { return front_end_; }

  /// Front-end's current view of a back-end's load (for tests).
  [[nodiscard]] int front_end_view(int node) const;
  [[nodiscard]] const ServerSetMap& server_sets() const { return sets_; }

 private:
  [[nodiscard]] int least_loaded_backend() const;
  [[nodiscard]] bool any_backend_below(int threshold) const;
  [[nodiscard]] int decide(const trace::Request& r);
  void record_termination(int node);

  LardParams params_;
  ClusterContext ctx_;
  cluster::LoadView view_{1};
  ServerSetMap sets_;  ///< one replica, 0: the front end's table
  std::vector<int> completions_since_update_;
  SimTime shrink_ns_ = 0;
  int front_end_ = 0;
  int brownout_level_ = 0;
};

}  // namespace l2s::policy
