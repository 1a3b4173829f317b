#include "l2sim/cache/gdsf_cache.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::cache {

GdsfCache::GdsfCache(Bytes capacity) : capacity_(capacity) {
  L2S_REQUIRE(capacity > 0);
}

double GdsfCache::priority_of(double frequency, Bytes size) const {
  // Uniform miss cost; size measured in KB so priorities stay in a sane
  // numeric range for typical web files.
  return floor_ + frequency / std::max(bytes_to_kib(size), 1e-3);
}

void GdsfCache::reprioritize(FileId id, Entry& entry) {
  by_priority_.erase(entry.by_priority);
  entry.by_priority = by_priority_.emplace(priority_of(entry.frequency, entry.size), id);
}

bool GdsfCache::lookup(FileId id) {
  const std::uint32_t slot = index_.find(id);
  if (slot == FileIndex::kAbsent) {
    ++stats_.misses;
    return false;
  }
  Entry& entry = entries_[slot];
  entry.frequency += 1.0;
  reprioritize(id, entry);
  ++stats_.hits;
  return true;
}

bool GdsfCache::contains(FileId id) const { return index_.find(id) != FileIndex::kAbsent; }

void GdsfCache::remove(std::uint32_t slot) {
  used_ -= entries_[slot].size;
  by_priority_.erase(entries_[slot].by_priority);
  free_.push_back(slot);
}

void GdsfCache::evict_one() {
  L2S_REQUIRE(!by_priority_.empty());
  const auto victim = by_priority_.begin();
  // The aging floor rises to the evicted priority: long-resident files
  // decay relative to fresh insertions.
  floor_ = victim->first;
  const std::uint32_t slot = index_.erase(victim->second);
  L2S_REQUIRE(slot != FileIndex::kAbsent);
  ++stats_.evictions;
  stats_.bytes_evicted += entries_[slot].size;
  remove(slot);
}

void GdsfCache::insert(FileId id, Bytes size) {
  if (size > capacity_) return;
  std::uint32_t slot = index_.find(id);
  if (slot != FileIndex::kAbsent) {
    Entry& entry = entries_[slot];
    used_ -= entry.size;
    entry.size = size;
    used_ += size;
    reprioritize(id, entry);
  } else {
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    entries_[slot] = Entry{size, 1.0, by_priority_.emplace(priority_of(1.0, size), id)};
    index_.insert(id, slot);
    used_ += size;
    ++stats_.insertions;
  }
  while (used_ > capacity_) evict_one();
}

bool GdsfCache::erase(FileId id) {
  const std::uint32_t slot = index_.erase(id);
  if (slot == FileIndex::kAbsent) return false;
  remove(slot);
  return true;
}

void GdsfCache::clear() {
  index_.clear();
  entries_.clear();
  free_.clear();
  by_priority_.clear();
  used_ = 0;
  floor_ = 0.0;
}

}  // namespace l2s::cache
