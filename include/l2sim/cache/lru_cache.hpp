// Byte-capacity LRU cache of whole files — the model of a node's main
// memory used as file cache. The paper's servers cache entire files; an
// access either hits (file fully resident) or misses (file read from disk
// and inserted, evicting least-recently-used files until it fits).
//
// The recency list is intrusive over a pool of entries linked by uint32_t
// indices (a freed entry is reused by the next insertion), and a FileIndex
// maps each resident file to its entry, so memory follows the resident
// files and a lookup is one probe run plus two link updates.
#pragma once

#include <cstdint>
#include <vector>

#include "l2sim/cache/file_cache.hpp"
#include "l2sim/cache/file_index.hpp"

namespace l2s::cache {

class LruCache final : public FileCache {
 public:
  explicit LruCache(Bytes capacity);

  /// Record an access: on hit the file moves to MRU position and stats
  /// count a hit; on miss stats count a miss (caller fetches from disk and
  /// calls insert()). Returns true on hit.
  bool lookup(FileId id) override;

  /// Residency probe without touching stats or recency.
  [[nodiscard]] bool contains(FileId id) const override;

  /// Insert (or refresh) a file of `size` bytes, evicting LRU entries
  /// until it fits. Files larger than the whole capacity are not cached.
  void insert(FileId id, Bytes size) override;

  /// Remove a file if present; returns true if it was resident.
  bool erase(FileId id) override;

  [[nodiscard]] Bytes used() const override { return used_; }
  [[nodiscard]] Bytes capacity() const override { return capacity_; }
  [[nodiscard]] std::size_t entries() const override { return index_.size(); }

  [[nodiscard]] const CacheStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

  /// Drop all contents (not stats).
  void clear() override;

 private:
  static constexpr std::uint32_t kNil = FileIndex::kAbsent;

  struct Entry {
    Bytes size = 0;
    FileId id = 0;
    std::uint32_t prev = kNil;  ///< toward the MRU end
    std::uint32_t next = kNil;  ///< toward the LRU end; the free list's link
  };

  void unlink(std::uint32_t e);
  void push_front(std::uint32_t e);
  void evict_one();

  Bytes capacity_;
  Bytes used_ = 0;
  FileIndex index_;
  std::vector<Entry> entries_;
  std::uint32_t head_ = kNil;  ///< MRU
  std::uint32_t tail_ = kNil;  ///< LRU
  std::uint32_t free_ = kNil;  ///< first free entry
  CacheStats stats_;
};

}  // namespace l2s::cache
