// The simplest cluster server of Section 2: round-robin DNS hands clients
// to nodes and every node serves what it receives — no load feedback, no
// content awareness. Included as the baseline that shows why DNS-level
// distribution alone is fragile (cached translations skew the entry
// stream, and the server "cannot adjust the request distribution
// according to its own instantaneous load and/or locality information").
#pragma once

#include "l2sim/policy/policy.hpp"

namespace l2s::policy {

class RoundRobinPolicy final : public Policy {
 public:
  [[nodiscard]] const char* name() const override { return "rr-dns"; }

  void attach(const ClusterContext& ctx) override;

  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override;
  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override;
  [[nodiscard]] bool entry_is_dns() const override { return true; }

  /// The round-robin phase shifts every pass: otherwise a replayed trace
  /// sends each node exactly the subsequence it saw during warm-up and
  /// the caches "memorize" the replay (an artifact real streams lack).
  void on_pass_start(int pass) override;

  /// DNS eventually stops handing out the dead node's address.
  void on_node_failed(int node) override;

  /// DNS resumes handing out the recovered node's address.
  void on_node_recovered(int node) override;

 private:
  std::uint64_t rotation_ = 0;
  DnsRotation dns_;
};

}  // namespace l2s::policy
