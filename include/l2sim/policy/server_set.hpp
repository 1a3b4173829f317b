// Per-file server sets: the nodes believed to cache each file, plus the
// time of the last membership change (both LARD's front-end table and each
// L2S node's replicated copy use this structure).
//
// The table is a dense array indexed by file id (ids are dense, see
// storage/file_set.hpp). Each entry holds an immutable member list shared
// by every replica that adopted it: add() and remove() build a new list
// (copy-on-write, member order kept), so an L2S set change is one list
// that the origin and all N-1 receivers point at, not N copies.
#pragma once

#include <memory>
#include <vector>

#include "l2sim/common/units.hpp"
#include "l2sim/storage/file_set.hpp"

namespace l2s::policy {

class ServerSetMap {
 public:
  /// One immutable membership list; null means no members.
  using Members = std::shared_ptr<const std::vector<int>>;

  /// Members for a file; empty if the file was never assigned. The
  /// reference stays valid until the next add(), remove(), adopt() or
  /// clear() on this map.
  [[nodiscard]] const std::vector<int>& members(storage::FileId file) const {
    const Entry* e = find(file);
    return e == nullptr || !e->nodes ? kEmpty : *e->nodes;
  }

  [[nodiscard]] bool contains(storage::FileId file, int node) const;

  /// Add `node` to the file's set (no-op if present). Records `now`.
  void add(storage::FileId file, int node, SimTime now);

  /// Remove `node` (no-op if absent). Records `now` if removed.
  void remove(storage::FileId file, int node, SimTime now);

  /// The file's current list, to hand to other replicas.
  [[nodiscard]] Members shared_members(storage::FileId file) const {
    const Entry* e = find(file);
    return e == nullptr ? nullptr : e->nodes;
  }

  /// Take `members` as the file's whole membership (applying a received
  /// broadcast). Records `now`.
  void adopt(storage::FileId file, Members members, SimTime now);

  [[nodiscard]] SimTime last_modified(storage::FileId file) const {
    const Entry* e = find(file);
    return e == nullptr ? 0 : e->modified;
  }

  void clear() { entries_.clear(); }

 private:
  struct Entry {
    Members nodes;
    SimTime modified = 0;
  };

  [[nodiscard]] const Entry* find(storage::FileId file) const {
    return file < entries_.size() ? &entries_[file] : nullptr;
  }
  [[nodiscard]] Entry& entry_for(storage::FileId file);  ///< grows the table

  std::vector<Entry> entries_;
  static const std::vector<int> kEmpty;
};

}  // namespace l2s::policy
