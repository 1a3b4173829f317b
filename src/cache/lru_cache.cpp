#include "l2sim/cache/lru_cache.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::cache {

LruCache::LruCache(Bytes capacity) : capacity_(capacity) {
  L2S_REQUIRE(capacity > 0);
}

void LruCache::unlink(std::uint32_t e) {
  const Entry& entry = entries_[e];
  (entry.prev == kNil ? head_ : entries_[entry.prev].next) = entry.next;
  (entry.next == kNil ? tail_ : entries_[entry.next].prev) = entry.prev;
}

void LruCache::push_front(std::uint32_t e) {
  Entry& entry = entries_[e];
  entry.prev = kNil;
  entry.next = head_;
  (head_ == kNil ? tail_ : entries_[head_].prev) = e;
  head_ = e;
}

bool LruCache::lookup(FileId id) {
  const std::uint32_t e = index_.find(id);
  if (e == kNil) {
    ++stats_.misses;
    return false;
  }
  if (e != head_) {
    unlink(e);
    push_front(e);
  }
  ++stats_.hits;
  return true;
}

bool LruCache::contains(FileId id) const { return index_.find(id) != kNil; }

void LruCache::evict_one() {
  L2S_REQUIRE(tail_ != kNil);
  const std::uint32_t e = tail_;
  const Entry victim = entries_[e];
  unlink(e);
  index_.erase(victim.id);
  entries_[e].next = free_;
  free_ = e;
  used_ -= victim.size;
  ++stats_.evictions;
  stats_.bytes_evicted += victim.size;
}

void LruCache::insert(FileId id, Bytes size) {
  if (size > capacity_) return;  // cannot ever fit; serve from disk each time
  std::uint32_t e = index_.find(id);
  if (e != kNil) {
    // Refresh: update size in place (sizes are stable in practice, but the
    // trace format permits re-stat) and move to MRU.
    used_ -= entries_[e].size;
    entries_[e].size = size;
    used_ += size;
    if (e != head_) {
      unlink(e);
      push_front(e);
    }
  } else {
    if (free_ != kNil) {
      e = free_;
      free_ = entries_[e].next;
    } else {
      e = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    entries_[e].size = size;
    entries_[e].id = id;
    push_front(e);
    index_.insert(id, e);
    used_ += size;
    ++stats_.insertions;
  }
  while (used_ > capacity_) evict_one();
}

bool LruCache::erase(FileId id) {
  const std::uint32_t e = index_.erase(id);
  if (e == kNil) return false;
  used_ -= entries_[e].size;
  unlink(e);
  entries_[e].next = free_;
  free_ = e;
  return true;
}

void LruCache::clear() {
  index_.clear();
  entries_.clear();
  head_ = tail_ = free_ = kNil;
  used_ = 0;
}

}  // namespace l2s::cache
