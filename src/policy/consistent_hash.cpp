#include "l2sim/policy/consistent_hash.hpp"

#include <algorithm>

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
  alive_entries_.clear();
  for (int n = 0; n < ctx.node_count(); ++n) add_points(n);
}

void ConsistentHashPolicy::add_points(int node) {
  for (int v = 0; v < virtual_nodes_; ++v) ring_[ring_point(node, v)] = node;
}

int ConsistentHashPolicy::entry_node(std::uint64_t seq, const trace::Request& /*r*/) {
  if (alive_entries_.empty())
    return static_cast<int>((seq + rotation_) % static_cast<std::uint64_t>(ctx_.node_count()));
  return alive_entries_[static_cast<std::size_t>((seq + rotation_) % alive_entries_.size())];
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
  if (alive_entries_.empty()) {
    for (int n = 0; n < ctx_.node_count(); ++n) alive_entries_.push_back(n);
  }
  alive_entries_.erase(std::remove(alive_entries_.begin(), alive_entries_.end(), node),
                       alive_entries_.end());
  if (alive_entries_.empty()) alive_entries_.push_back(node);
}

void ConsistentHashPolicy::on_node_recovered(int node) {
  add_points(node);  // its keys come back from the ring successors
  if (alive_entries_.empty()) return;  // no failure was ever detected: all in the DNS
  const auto it = std::lower_bound(alive_entries_.begin(), alive_entries_.end(), node);
  if (it == alive_entries_.end() || *it != node) alive_entries_.insert(it, node);
}

}  // namespace l2s::policy
