#include "l2sim/policy/round_robin.hpp"

namespace l2s::policy {

void RoundRobinPolicy::attach(const ClusterContext& ctx) { dns_.reset(ctx.node_count()); }

int RoundRobinPolicy::entry_node(std::uint64_t seq, const trace::Request& /*r*/) {
  return dns_.pick(seq + rotation_);
}

void RoundRobinPolicy::on_node_failed(int node) { dns_.remove(node); }

void RoundRobinPolicy::on_node_recovered(int node) { dns_.add(node); }

void RoundRobinPolicy::on_pass_start(int pass) {
  // A phase coprime to common cluster sizes decorrelates the passes.
  rotation_ = static_cast<std::uint64_t>(pass) * 7919;
}

int RoundRobinPolicy::select_service_node(int entry, const trace::Request& /*r*/) {
  return entry;
}

}  // namespace l2s::policy
