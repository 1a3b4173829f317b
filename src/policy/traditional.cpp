#include "l2sim/policy/traditional.hpp"

#include <limits>

namespace l2s::policy {

void TraditionalPolicy::attach(const ClusterContext& ctx) {
  ctx_ = ctx;
  down_.assign(ctx_.nodes.size(), 0);
}

int TraditionalPolicy::entry_node(std::uint64_t /*seq*/, const trace::Request& /*r*/) {
  // One pass: a down node counts as infinitely loaded, and a strict `<`
  // keeps the lowest index on ties.
  int best = 0;  // all down: requests will fail at node 0
  int best_load = std::numeric_limits<int>::max();
  for (std::size_t n = 0; n < ctx_.nodes.size(); ++n) {
    const int load =
        down_[n] != 0 ? std::numeric_limits<int>::max() : ctx_.nodes[n]->open_connections();
    if (load < best_load) {
      best = static_cast<int>(n);
      best_load = load;
    }
  }
  return best;
}

void TraditionalPolicy::on_node_failed(int node) { down_[static_cast<std::size_t>(node)] = 1; }

void TraditionalPolicy::on_node_recovered(int node) {
  down_[static_cast<std::size_t>(node)] = 0;
}

int TraditionalPolicy::select_service_node(int entry, const trace::Request& /*r*/) {
  return entry;
}

}  // namespace l2s::policy
