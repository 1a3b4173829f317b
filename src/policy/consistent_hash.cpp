#include "l2sim/policy/consistent_hash.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::policy {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// mix64 is a bijection, so no two (node, v) pairs share a ring point.
std::uint64_t ring_point(int node, int v) {
  return mix64((static_cast<std::uint64_t>(node) << 32) | static_cast<std::uint64_t>(v));
}

}  // namespace

ConsistentHashPolicy::ConsistentHashPolicy(int virtual_nodes)
    : virtual_nodes_(virtual_nodes) {
  L2S_REQUIRE(virtual_nodes >= 1);
}

void ConsistentHashPolicy::attach(const ClusterContext& ctx) {
  ctx_ = ctx;
  ring_.clear();
  dns_.reset(ctx.node_count());
  for (int n = 0; n < ctx.node_count(); ++n) add_points(n);
}

void ConsistentHashPolicy::add_points(int node) {
  for (int v = 0; v < virtual_nodes_; ++v) ring_[ring_point(node, v)] = node;
}

int ConsistentHashPolicy::entry_node(std::uint64_t seq, const trace::Request& /*r*/) {
  return dns_.pick(seq + rotation_);
}

void ConsistentHashPolicy::on_pass_start(int pass) {
  rotation_ = static_cast<std::uint64_t>(pass) * 7919;
}

int ConsistentHashPolicy::owner_of(storage::FileId file) const {
  L2S_REQUIRE(!ring_.empty());
  const std::uint64_t h = mix64(0xF11E0000ULL + file);
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

int ConsistentHashPolicy::select_service_node(int /*entry*/, const trace::Request& r) {
  return owner_of(r.file);
}

SimTime ConsistentHashPolicy::forward_cpu_time(int entry) const {
  return ctx_.node(entry).forward_time();
}

void ConsistentHashPolicy::on_node_failed(int node) {
  // Drop the node's ring points: its keys remap to the ring successors
  // (about 1/N of the key space), everyone else's mapping is untouched.
  for (int v = 0; v < virtual_nodes_; ++v) ring_.erase(ring_point(node, v));
  dns_.remove(node);
}

void ConsistentHashPolicy::on_node_recovered(int node) {
  add_points(node);  // its keys come back from the ring successors
  dns_.add(node);
}

}  // namespace l2s::policy
