#include "l2sim/des/scheduler.hpp"

#include <algorithm>

namespace l2s::des {

// Bottom-up (Wegener) sift-down of the last key from the root: the key
// came from the last heap position — almost always near-maximal — so
// instead of comparing it at every level, descend the min-child path to a
// leaf unconditionally and then bubble the key back up. The descent picks
// the earliest of four children by a two-round tournament of selects, so
// it takes no data-dependent branch; the up-pass is short in expectation
// because the key belongs near the bottom.
void Scheduler::pop_heap() {
  const Key key = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  Key* const h = heap_.data();
  std::size_t i = 0;
  while (true) {
    const std::size_t first = i * kArity + 1;
    std::size_t best;
    if (first + kArity <= n) {
      const auto c = static_cast<unsigned>(first);
      best = earlier_of(h, earlier_of(h, c, c + 1), earlier_of(h, c + 2, c + 3));
    } else if (first < n) {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c)
        if (earlier(h[c], h[best])) best = c;
    } else {
      break;
    }
    // Start pulling the next level's children while this level's copy
    // retires; at deep backlogs each level is uncached, and a group of
    // four 16-byte keys at index 4i+1 straddles two 64-byte lines.
    const std::size_t next_first = std::min(best * kArity + 1, n - 1);
    const std::size_t next_last = std::min(best * kArity + kArity, n - 1);
    __builtin_prefetch(&h[next_first], 0);
    __builtin_prefetch(&h[next_last], 0);
    h[i] = h[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(key, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = key;
}

void Scheduler::grow() {
  L2S_REQUIRE(capacity_ < (std::uint32_t{1} << kSlotBits));
  const auto chunk =
      static_cast<unsigned>(std::bit_width(capacity_ + kFirstChunk)) - 1 - kFirstChunkBits;
  // The last chunk stops where slot ids stop fitting the heap key.
  const std::uint32_t size =
      std::min(kFirstChunk << chunk, (std::uint32_t{1} << kSlotBits) - capacity_);
  auto fresh = std::make_unique<EventFn[]>(size);
  free_slots_.reserve(std::size_t{capacity_} + size);
  chunks_[chunk] = std::move(fresh);
  capacity_ += size;
}

// A full ring doubles, its keys copied oldest first, so a lane stops
// allocating once it has held its deepest backlog.
void Scheduler::grow_lane(Lane& l) {
  const std::uint32_t capacity = l.capacity == 0 ? 64 : 2 * l.capacity;
  auto ring = std::make_unique<Key[]>(capacity);
  for (std::uint32_t k = 0; k < l.count; ++k) ring[k] = l.ring[(l.head + k) & (l.capacity - 1)];
  l.ring = std::move(ring);
  l.capacity = capacity;
  l.head = 0;
}

void Scheduler::clear_lanes() {
  for (Lane& l : lanes_) {
    l.head = 0;
    l.count = 0;
  }
  heads_.fill(kIdle);
  first_lane_ = 0;
  delays_.fill(kNoDelay);
  heap_delay_ = kNoDelay;
}

void Scheduler::reset() {
  L2S_REQUIRE(running_ == 0);
  for (std::uint32_t slot = 0; slot < used_; ++slot) slot_at(slot) = nullptr;
  heap_.clear();
  clear_lanes();
  free_slots_.clear();
  used_ = 0;
  now_ = 0;
  next_seq_ = 0;
  processed_ = 0;
}

}  // namespace l2s::des
