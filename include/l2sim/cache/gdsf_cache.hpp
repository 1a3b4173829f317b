// GDSF (GreedyDual-Size with Frequency) cache — the classic web-cache
// replacement policy for variable-size objects (Cherkasova, 1998).
//
// Each resident file carries a priority H = L + frequency / size_kb,
// where L is an aging floor that rises to the priority of each evicted
// file. Small, frequently requested files therefore outlive big cold
// ones, which maximizes *request* hit rate (at some cost in byte hit
// rate) — a useful ablation against the paper's whole-file LRU.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "l2sim/cache/file_cache.hpp"
#include "l2sim/cache/file_index.hpp"

namespace l2s::cache {

class GdsfCache final : public FileCache {
 public:
  explicit GdsfCache(Bytes capacity);

  bool lookup(FileId id) override;
  [[nodiscard]] bool contains(FileId id) const override;
  void insert(FileId id, Bytes size) override;
  bool erase(FileId id) override;

  [[nodiscard]] Bytes used() const override { return used_; }
  [[nodiscard]] Bytes capacity() const override { return capacity_; }
  [[nodiscard]] std::size_t entries() const override { return index_.size(); }

  [[nodiscard]] const CacheStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }
  void clear() override;

  /// Current aging floor (exposed for tests).
  [[nodiscard]] double aging_floor() const { return floor_; }

 private:
  struct Entry {
    Bytes size = 0;
    double frequency = 0.0;
    std::multimap<double, FileId>::iterator by_priority{};
  };

  [[nodiscard]] double priority_of(double frequency, Bytes size) const;
  void reprioritize(FileId id, Entry& entry);
  /// Drop the entry in `slot` (already out of the index): its bytes, its
  /// priority and its slot, which the next insertion reuses.
  void remove(std::uint32_t slot);
  void evict_one();

  Bytes capacity_;
  Bytes used_ = 0;
  double floor_ = 0.0;  ///< L, rises with evictions
  FileIndex index_;  ///< resident file -> entry slot
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;  ///< entry slots to reuse
  std::multimap<double, FileId> by_priority_;  ///< min priority first
  CacheStats stats_;
};

}  // namespace l2s::cache
