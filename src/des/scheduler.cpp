#include "l2sim/des/scheduler.hpp"

#include <algorithm>

namespace l2s::des {

// Bottom-up (Wegener) sift-down: the key being sifted came from the last
// heap position — almost always near-maximal — so instead of comparing it
// at every level (a hard-to-predict branch), descend the min-child path to
// a leaf unconditionally and then bubble the key back up. The descent does
// only child-vs-child comparisons; the up-pass is short in expectation
// because the key belongs near the bottom.
void Scheduler::sift_down(std::size_t i) {
  Key* const h = heap_.data();
  const std::size_t n = heap_.size();
  const Key key = h[i];
  const std::size_t start = i;
  while (true) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c)
      if (earlier(h[c], h[best])) best = c;
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
  while (i > start) {
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

void Scheduler::reset() {
  L2S_REQUIRE(running_ == 0);
  for (std::uint32_t slot = 0; slot < used_; ++slot) slot_at(slot) = nullptr;
  heap_.clear();
  free_slots_.clear();
  used_ = 0;
  now_ = 0;
  next_seq_ = 0;
  processed_ = 0;
}

}  // namespace l2s::des
