#include "l2sim/policy/policy.hpp"

#include <algorithm>

#include "l2sim/common/error.hpp"

namespace l2s::policy {

void DnsRotation::reset(int nodes) {
  alive_.clear();
  for (int n = 0; n < nodes; ++n) alive_.push_back(n);
  last_down_ = -1;
}

int DnsRotation::pick(std::uint64_t seq) const {
  if (alive_.empty()) {
    L2S_REQUIRE(last_down_ >= 0);
    return last_down_;
  }
  return alive_[static_cast<std::size_t>(seq % alive_.size())];
}

bool DnsRotation::contains(int node) const {
  return std::binary_search(alive_.begin(), alive_.end(), node);
}

void DnsRotation::remove(int node) {
  const auto it = std::lower_bound(alive_.begin(), alive_.end(), node);
  if (it == alive_.end() || *it != node) return;
  alive_.erase(it);
  if (alive_.empty()) last_down_ = node;
}

void DnsRotation::add(int node) {
  const auto it = std::lower_bound(alive_.begin(), alive_.end(), node);
  if (it == alive_.end() || *it != node) alive_.insert(it, node);
}

SimTime Policy::forward_cpu_time(int /*entry*/) const { return 0; }

void Policy::on_service_start(int /*node*/, const trace::Request& /*r*/) {}

void Policy::on_complete(int /*node*/, const trace::Request& /*r*/) {}

int Policy::select_next_in_connection(int current, const trace::Request& r) {
  return select_service_node(current, r);
}

void Policy::on_connection_migrated(int /*from*/, int /*to*/, const trace::Request& /*r*/) {}

void Policy::on_pass_start(int /*pass*/) {}

void Policy::on_node_failed(int /*node*/) {}

void Policy::on_node_suspected(int node) { on_node_failed(node); }

void Policy::on_node_recovered(int /*node*/) {}

void Policy::on_brownout(int /*level*/) {}

void Policy::select_service_node_async(int entry, const trace::Request& r,
                                       std::function<void(int)> done) {
  done(select_service_node(entry, r));
}

}  // namespace l2s::policy
