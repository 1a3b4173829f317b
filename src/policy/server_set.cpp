#include "l2sim/policy/server_set.hpp"

#include <algorithm>
#include <bit>

namespace l2s::policy {

const std::vector<int> ServerSetMap::kEmpty{};

namespace {

/// Entries in a chunk of rows, about 64 KiB of them.
constexpr std::size_t kChunkEntries = 4096;

}  // namespace

ServerSetMap::ServerSetMap(int replicas) : replicas_(replicas) {
  L2S_REQUIRE(replicas > 0);
  const std::size_t rows = std::bit_floor(
      std::max<std::size_t>(1, kChunkEntries / static_cast<std::size_t>(replicas)));
  chunk_shift_ = static_cast<unsigned>(std::countr_zero(rows));
  chunk_mask_ = static_cast<std::uint32_t>(rows - 1);
}

ServerSetMap::Entry& ServerSetMap::entry_for(int replica, storage::FileId file) {
  L2S_REQUIRE(replica >= 0 && replica < replicas_);
  if (file >= row_of_.size()) row_of_.resize(std::size_t{file} + 1, kNoRow);
  std::uint32_t& row = row_of_[file];
  if (row == kNoRow) {
    L2S_REQUIRE(rows_ < kNoRow);
    if ((rows_ >> chunk_shift_) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Entry[]>(
          (std::size_t{chunk_mask_} + 1) * static_cast<std::size_t>(replicas_)));
    }
    row = rows_++;
  }
  return entry(row, replica);
}

bool ServerSetMap::contains(int replica, storage::FileId file, int node) const {
  const auto& m = members(replica, file);
  return std::find(m.begin(), m.end(), node) != m.end();
}

void ServerSetMap::add(int replica, storage::FileId file, int node, SimTime now) {
  if (contains(replica, file, node)) return;
  Entry& e = entry_for(replica, file);
  const auto& old = e.list.nodes();
  std::vector<int> next;
  next.reserve(old.size() + 1);
  next.assign(old.begin(), old.end());
  next.push_back(node);
  e.list = List(std::move(next));
  e.modified = now;
}

void ServerSetMap::remove(int replica, storage::FileId file, int node, SimTime now) {
  const auto& old = members(replica, file);
  const auto pos = std::find(old.begin(), old.end(), node);
  if (pos == old.end()) return;
  std::vector<int> next;
  next.reserve(old.size() - 1);
  next.insert(next.end(), old.begin(), pos);
  next.insert(next.end(), pos + 1, old.end());
  Entry& e = entry(row_of_[file], replica);
  e.list = List(std::move(next));
  e.modified = now;
}

void ServerSetMap::adopt(int replica, storage::FileId file, List members, SimTime now) {
  Entry& e = entry_for(replica, file);
  e.list = std::move(members);
  e.modified = now;
}

void ServerSetMap::clear(int replica) {
  L2S_REQUIRE(replica >= 0 && replica < replicas_);
  for (std::uint32_t row = 0; row < rows_; ++row) entry(row, replica) = Entry{};
}

}  // namespace l2s::policy
