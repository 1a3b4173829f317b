#include "l2sim/policy/server_set.hpp"

#include <algorithm>

namespace l2s::policy {

const std::vector<int> ServerSetMap::kEmpty{};

ServerSetMap::Entry& ServerSetMap::entry_for(storage::FileId file) {
  if (file >= entries_.size()) entries_.resize(std::size_t{file} + 1);
  return entries_[file];
}

bool ServerSetMap::contains(storage::FileId file, int node) const {
  const auto& m = members(file);
  return std::find(m.begin(), m.end(), node) != m.end();
}

void ServerSetMap::add(storage::FileId file, int node, SimTime now) {
  if (contains(file, node)) return;
  const auto& old = members(file);
  auto next = std::make_shared<std::vector<int>>();
  next->reserve(old.size() + 1);
  next->assign(old.begin(), old.end());
  next->push_back(node);
  Entry& entry = entry_for(file);
  entry.nodes = std::move(next);
  entry.modified = now;
}

void ServerSetMap::remove(storage::FileId file, int node, SimTime now) {
  const auto& old = members(file);
  const auto pos = std::find(old.begin(), old.end(), node);
  if (pos == old.end()) return;
  auto next = std::make_shared<std::vector<int>>();
  next->reserve(old.size() - 1);
  next->insert(next->end(), old.begin(), pos);
  next->insert(next->end(), pos + 1, old.end());
  Entry& entry = entries_[file];
  entry.nodes = std::move(next);
  entry.modified = now;
}

void ServerSetMap::adopt(storage::FileId file, Members members, SimTime now) {
  Entry& entry = entry_for(file);
  entry.nodes = std::move(members);
  entry.modified = now;
}

}  // namespace l2s::policy
