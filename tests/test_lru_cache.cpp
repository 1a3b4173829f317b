#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "l2sim/cache/file_index.hpp"
#include "l2sim/cache/lru_cache.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"

namespace l2s::cache {
namespace {

TEST(LruCache, MissThenHit) {
  LruCache c(10 * kKiB);
  EXPECT_FALSE(c.lookup(1));
  c.insert(1, 4 * kKiB);
  EXPECT_TRUE(c.lookup(1));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(10 * kKiB);
  c.insert(1, 4 * kKiB);
  c.insert(2, 4 * kKiB);
  EXPECT_TRUE(c.lookup(1));         // 1 is now MRU
  c.insert(3, 4 * kKiB);            // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LruCache, ByteAccountingExact) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(2, 30);
  EXPECT_EQ(c.used(), 70u);
  c.insert(3, 40);  // must evict 1 (LRU)
  EXPECT_EQ(c.used(), 70u);
  EXPECT_FALSE(c.contains(1));
}

TEST(LruCache, OversizedFileNeverCached) {
  LruCache c(100);
  c.insert(1, 50);
  c.insert(2, 101);  // larger than whole capacity
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(1));  // existing contents untouched
  EXPECT_EQ(c.used(), 50u);
}

TEST(LruCache, FileExactlyCapacityFits) {
  LruCache c(100);
  c.insert(1, 60);
  c.insert(2, 100);  // evicts everything else, fits exactly
  EXPECT_TRUE(c.contains(2));
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.used(), 100u);
}

TEST(LruCache, ReinsertRefreshesRecency) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(2, 40);
  c.insert(1, 40);  // 1 becomes MRU again
  c.insert(3, 40);  // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruCache, ReinsertWithNewSizeAdjustsBytes) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(1, 60);
  EXPECT_EQ(c.used(), 60u);
  EXPECT_EQ(c.entries(), 1u);
  // Insertions counter only counts new entries.
  EXPECT_EQ(c.stats().insertions, 1u);
}

TEST(LruCache, EraseFreesSpace) {
  LruCache c(100);
  c.insert(1, 70);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.used(), 0u);
  c.insert(2, 100);
  EXPECT_TRUE(c.contains(2));
}

TEST(LruCache, ContainsDoesNotTouchStatsOrRecency) {
  LruCache c(100);
  c.insert(1, 40);
  c.insert(2, 40);
  (void)c.contains(1);  // must NOT promote 1
  c.insert(3, 40);      // evicts 1 (still LRU)
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
}

TEST(LruCache, ClearDropsContentsKeepsStats) {
  LruCache c(100);
  c.insert(1, 40);
  (void)c.lookup(1);
  c.clear();
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(c.used(), 0u);
  EXPECT_EQ(c.stats().hits, 1u);
  c.reset_stats();
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(LruCache, MultiEvictionForLargeInsert) {
  LruCache c(100);
  c.insert(1, 30);
  c.insert(2, 30);
  c.insert(3, 30);
  c.insert(4, 90);  // must evict all three
  EXPECT_EQ(c.entries(), 1u);
  EXPECT_EQ(c.stats().evictions, 3u);
  EXPECT_EQ(c.stats().bytes_evicted, 90u);
}

TEST(LruCache, ZeroCapacityRejected) {
  EXPECT_THROW(LruCache(0), l2s::Error);
}

TEST(CacheStats, RatesAndMerge) {
  CacheStats a;
  a.hits = 3;
  a.misses = 1;
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(a.miss_rate(), 0.25);
  CacheStats b;
  b.hits = 1;
  b.misses = 3;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.5);
  const CacheStats empty;
  EXPECT_DOUBLE_EQ(empty.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.miss_rate(), 0.0);
}

/// The list + hash map LRU that LruCache replaced, kept as the reference
/// model: front = MRU. insert() reports the files it evicts, LRU first.
class ReferenceLru {
 public:
  explicit ReferenceLru(Bytes capacity) : capacity_(capacity) {}

  bool lookup(FileId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      ++stats.misses;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats.hits;
    return true;
  }
  [[nodiscard]] bool contains(FileId id) const { return index_.contains(id); }

  std::vector<FileId> insert(FileId id, Bytes size) {
    std::vector<FileId> evicted;
    if (size > capacity_) return evicted;
    const auto it = index_.find(id);
    if (it != index_.end()) {
      used -= it->second->second;
      it->second->second = size;
      used += size;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.emplace_front(id, size);
      index_[id] = lru_.begin();
      used += size;
      ++stats.insertions;
    }
    while (used > capacity_) {
      const auto [victim, bytes] = lru_.back();
      lru_.pop_back();
      index_.erase(victim);
      used -= bytes;
      ++stats.evictions;
      stats.bytes_evicted += bytes;
      evicted.push_back(victim);
    }
    return evicted;
  }

  bool erase(FileId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    used -= it->second->second;
    lru_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    lru_.clear();
    index_.clear();
    used = 0;
  }

  [[nodiscard]] std::size_t entries() const { return index_.size(); }
  /// Resident files, least recent first.
  [[nodiscard]] std::vector<FileId> recency_order() const {
    std::vector<FileId> order;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) order.push_back(it->first);
    return order;
  }

  Bytes used = 0;
  CacheStats stats;

 private:
  Bytes capacity_;
  std::list<std::pair<FileId, Bytes>> lru_;
  std::unordered_map<FileId, std::list<std::pair<FileId, Bytes>>::iterator> index_;
};

/// Ids that pile onto a few home cells: 12 ids for each of 48 adjacent
/// homes of a 1024-cell table, straddling its end so probe runs wrap. They
/// share homes in every smaller table too, and pairwise in the 2048-cell
/// one.
std::vector<FileId> colliding_ids() {
  std::map<std::uint32_t, std::vector<FileId>> by_home;
  for (FileId id = 0; id < (1U << 17); ++id) {
    const std::uint32_t h = FileIndex::hash(id) >> 22;
    if ((h >= 1000 || h < 24) && by_home[h].size() < 12) by_home[h].push_back(id);
  }
  std::vector<FileId> ids;
  for (const auto& [home, group] : by_home) ids.insert(ids.end(), group.begin(), group.end());
  ids.push_back(0xFFFFFFFFU);  // the largest id is a file like any other
  return ids;
}

/// Walk `ref`'s files least recent first; at each step a fresh file one
/// byte too big for the free space must evict exactly that file from `c`
/// (a copy, drained here).
void expect_same_recency_order(LruCache c, const ReferenceLru& ref, Bytes capacity) {
  constexpr FileId kFresh = 0xFFFFFFF0U;
  for (const FileId lru : ref.recency_order()) {
    const std::uint64_t evictions = c.stats().evictions;
    c.insert(kFresh, capacity - c.used() + 1);
    ASSERT_EQ(c.stats().evictions, evictions + 1);
    ASSERT_FALSE(c.contains(lru)) << "file " << lru << " was not least recent";
    ASSERT_TRUE(c.erase(kFresh));
  }
  EXPECT_EQ(c.entries(), 0u);
}

// 150k random operations over colliding ids, against the reference model:
// lookups with insert-on-miss, refreshes at a new size, erases, oversize
// files and an occasional clear, while the table doubles from 16 cells to
// 1024. Every result, residency answer, byte count and statistic must
// match after every operation; the files each operation evicts must leave
// the cache too; and at checkpoints the whole recency order must match.
TEST(LruCache, MatchesReferenceModelOverRandomOperations) {
  const std::vector<FileId> ids = colliding_ids();
  ASSERT_GE(ids.size(), 500u);
  constexpr Bytes kCapacity = 2 * kMiB;  // about 250 files of 1-16 KiB
  LruCache c(kCapacity);
  ReferenceLru ref(kCapacity);
  std::vector<Bytes> size_of(ids.size());
  Rng rng(2024);
  for (Bytes& s : size_of) s = 1 + rng.next_below(16 * kKiB);
  std::size_t max_entries = 0;
  int clears = 0;
  for (int op = 0; op < 150000; ++op) {
    const std::size_t k = rng.next_below(ids.size());
    const FileId id = ids[k];
    const std::uint64_t roll = rng.next_below(1000);
    std::vector<FileId> evicted;
    if (roll < 500) {
      const bool hit = c.lookup(id);
      ASSERT_EQ(hit, ref.lookup(id)) << "op " << op;
      if (!hit) {
        c.insert(id, size_of[k]);
        evicted = ref.insert(id, size_of[k]);
      }
    } else if (roll < 750) {
      size_of[k] = 1 + rng.next_below(16 * kKiB);  // refresh at a new size
      c.insert(id, size_of[k]);
      evicted = ref.insert(id, size_of[k]);
    } else if (roll < 960) {
      ASSERT_EQ(c.erase(id), ref.erase(id)) << "op " << op;
    } else if (roll < 999) {
      c.insert(id, kCapacity + 1 + rng.next_below(kMiB));  // never cached
      evicted = ref.insert(id, kCapacity + 1);
    } else if (rng.next_below(20) == 0) {
      c.clear();
      ref.clear();
      ++clears;
    }
    ASSERT_EQ(c.contains(id), ref.contains(id)) << "op " << op;
    for (const FileId v : evicted) ASSERT_FALSE(c.contains(v)) << "op " << op;
    ASSERT_EQ(c.used(), ref.used) << "op " << op;
    ASSERT_EQ(c.entries(), ref.entries()) << "op " << op;
    ASSERT_EQ(c.stats().hits, ref.stats.hits);
    ASSERT_EQ(c.stats().misses, ref.stats.misses);
    ASSERT_EQ(c.stats().insertions, ref.stats.insertions);
    ASSERT_EQ(c.stats().evictions, ref.stats.evictions) << "op " << op;
    ASSERT_EQ(c.stats().bytes_evicted, ref.stats.bytes_evicted);
    max_entries = std::max(max_entries, ref.entries());
    if (op % 5000 == 4999) {
      for (const FileId f : ids) ASSERT_EQ(c.contains(f), ref.contains(f)) << "op " << op;
      expect_same_recency_order(c, ref, kCapacity);
    }
  }
  EXPECT_GT(ref.stats.evictions, 10000u);
  EXPECT_GT(clears, 0);
  EXPECT_GT(max_entries, 256u);  // the index outgrew 512 cells
}

TEST(FileIndex, GrowsWithTheFilesItHoldsAndShrinksNothing) {
  FileIndex index;
  EXPECT_EQ(index.cells(), 16u);
  const std::vector<FileId> ids = colliding_ids();
  for (std::uint32_t slot = 0; slot < ids.size(); ++slot) index.insert(ids[slot], slot);
  EXPECT_EQ(index.size(), ids.size());
  EXPECT_GE(index.cells(), 2 * ids.size());
  EXPECT_EQ(index.cells(), 2048u);
  EXPECT_THROW(index.insert(ids[3], 99), l2s::Error);
  for (std::uint32_t slot = 0; slot < ids.size(); ++slot) EXPECT_EQ(index.find(ids[slot]), slot);
  // Erase every other id; backward shifts keep the rest reachable.
  for (std::uint32_t slot = 0; slot < ids.size(); slot += 2)
    EXPECT_EQ(index.erase(ids[slot]), slot);
  for (std::uint32_t slot = 0; slot < ids.size(); ++slot)
    EXPECT_EQ(index.find(ids[slot]), slot % 2 == 0 ? FileIndex::kAbsent : slot);
  EXPECT_EQ(index.erase(ids[0]), FileIndex::kAbsent);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.cells(), 2048u);
  EXPECT_EQ(index.find(ids[1]), FileIndex::kAbsent);
}

}  // namespace
}  // namespace l2s::cache
