// Per-file server sets: the nodes believed to cache each file, plus the
// time of the last membership change, in every replica of the table.
// LARD's front end (and its dispatcher variant) keeps one replica; L2S
// keeps one per node, that node's copy of every file's set.
//
// One file-major table holds every replica: a row of `replicas` entries
// (member list and last-modified time, 16 bytes) for each file that has
// ever had a set in any replica, reached through a dense file -> row index
// (file ids are dense, see storage/file_set.hpp). Rows live in chunks of
// about 64 KiB that never move. An L2S set change, which every node
// adopts, writes N neighbouring entries of one row.
//
// A member list is immutable and shared: add() and remove() build a new
// list (copy-on-write, member order kept), share() hands one out and
// adopt() takes it, so an L2S set change is one list that the origin and
// all N-1 receivers point at, not N copies. A list counts its holders with
// a plain (non-atomic) count and frees itself with the last of them, so a
// list captured by a pending broadcast may outlive the table. One
// simulation runs on one thread, and its lists never leave it.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/common/units.hpp"
#include "l2sim/storage/file_set.hpp"

namespace l2s::policy {

class ServerSetMap {
 public:
  /// A handle on one immutable member list; a default handle is the empty
  /// list.
  class List {
   public:
    List() = default;
    List(const List& other) noexcept : body_(other.body_) {
      if (body_ != nullptr) ++body_->holders;
    }
    List(List&& other) noexcept : body_(std::exchange(other.body_, nullptr)) {}
    List& operator=(List other) noexcept {
      std::swap(body_, other.body_);
      return *this;
    }
    ~List() {
      if (body_ != nullptr && --body_->holders == 0) delete body_;
    }

    [[nodiscard]] const std::vector<int>& nodes() const {
      return body_ == nullptr ? kEmpty : body_->nodes;
    }
    /// The same list, not merely the same members.
    [[nodiscard]] bool same_as(const List& other) const { return body_ == other.body_; }

   private:
    friend class ServerSetMap;
    struct Body {
      std::vector<int> nodes;
      std::uint32_t holders = 1;
    };
    explicit List(std::vector<int> nodes) : body_(new Body{std::move(nodes)}) {}

    Body* body_ = nullptr;
  };

  explicit ServerSetMap(int replicas = 1);

  /// Members of the file's set in `replica`; empty if it never had one
  /// there. The reference stays valid until the next add(), remove(),
  /// adopt() or clear() of that replica's entry.
  [[nodiscard]] const std::vector<int>& members(int replica, storage::FileId file) const {
    const Entry* e = find(replica, file);
    return e == nullptr ? kEmpty : e->list.nodes();
  }

  [[nodiscard]] bool contains(int replica, storage::FileId file, int node) const;

  /// Add `node` to the file's set (no-op if present). Records `now`.
  void add(int replica, storage::FileId file, int node, SimTime now);

  /// Remove `node` (no-op if absent). Records `now` if removed.
  void remove(int replica, storage::FileId file, int node, SimTime now);

  /// The file's current list in `replica`, to hand to other replicas.
  [[nodiscard]] List share(int replica, storage::FileId file) const {
    const Entry* e = find(replica, file);
    return e == nullptr ? List{} : e->list;
  }

  /// Take `members` as the file's whole membership in `replica` (applying
  /// a received broadcast). Records `now`.
  void adopt(int replica, storage::FileId file, List members, SimTime now);

  [[nodiscard]] SimTime last_modified(int replica, storage::FileId file) const {
    const Entry* e = find(replica, file);
    return e == nullptr ? 0 : e->modified;
  }

  /// Forget every set of `replica`; the other replicas keep theirs.
  void clear(int replica);

  /// Files with a row: every file that has had a set in some replica.
  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  struct Entry {
    List list;
    SimTime modified = 0;
  };
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  [[nodiscard]] const Entry* find(int replica, storage::FileId file) const {
    L2S_REQUIRE(replica >= 0 && replica < replicas_);
    if (file >= row_of_.size() || row_of_[file] == kNoRow) return nullptr;
    return &entry(row_of_[file], replica);
  }
  [[nodiscard]] Entry& entry(std::uint32_t row, int replica) const {
    return chunks_[row >> chunk_shift_]
                  [(row & chunk_mask_) * static_cast<std::size_t>(replicas_) +
                   static_cast<std::size_t>(replica)];
  }
  [[nodiscard]] Entry& entry_for(int replica, storage::FileId file);  ///< adds the row

  int replicas_;
  unsigned chunk_shift_;      ///< log2 of the rows in a chunk
  std::uint32_t chunk_mask_;  ///< rows in a chunk, minus one
  std::uint32_t rows_ = 0;
  std::vector<std::uint32_t> row_of_;  ///< by file id; kNoRow if none
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  static const std::vector<int> kEmpty;
};

}  // namespace l2s::policy
