#include "l2sim/des/event.hpp"

#include <array>
#include <cstdlib>

namespace l2s::des {
namespace {

// Size classes for spilled captures. A lambda that captures another
// InlineEvent (64 bytes) plus a pointer or two lands in the 128-byte
// class; 256/512 cover deeper nesting. The simulator's message path no
// longer builds such closures, so spills come from callers' own oversized
// callables; anything above 512 bytes goes straight to the global
// allocator.
constexpr std::array<std::size_t, 4> kClassSizes = {64, 128, 256, 512};

struct FreeBlock {
  FreeBlock* next;
};

struct ThreadArena {
  std::array<FreeBlock*, kClassSizes.size()> free_lists{};
  EventArena::Stats stats;

  ~ThreadArena() { release_lists(); }

  void release_lists() noexcept {
    for (FreeBlock*& head : free_lists) {
      while (head != nullptr) {
        FreeBlock* next = head->next;
        ::operator delete(static_cast<void*>(head));
        head = next;
      }
    }
  }

  static int class_for(std::size_t size) noexcept {
    for (std::size_t i = 0; i < kClassSizes.size(); ++i)
      if (size <= kClassSizes[i]) return static_cast<int>(i);
    return -1;
  }
};

ThreadArena& arena() noexcept {
  thread_local ThreadArena instance;
  return instance;
}

}  // namespace

void* EventArena::allocate(std::size_t size) {
  ThreadArena& a = arena();
  ++a.stats.outstanding;
  const int cls = ThreadArena::class_for(size);
  if (cls < 0) {
    ++a.stats.oversize;
    return ::operator new(size);
  }
  FreeBlock*& head = a.free_lists[static_cast<std::size_t>(cls)];
  if (head != nullptr) {
    ++a.stats.reused_blocks;
    FreeBlock* block = head;
    head = block->next;
    return block;
  }
  ++a.stats.fresh_blocks;
  return ::operator new(kClassSizes[static_cast<std::size_t>(cls)]);
}

void EventArena::deallocate(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  ThreadArena& a = arena();
  --a.stats.outstanding;
  const int cls = ThreadArena::class_for(size);
  if (cls < 0) {
    ::operator delete(p);
    return;
  }
  FreeBlock*& head = a.free_lists[static_cast<std::size_t>(cls)];
  auto* block = static_cast<FreeBlock*>(p);
  block->next = head;
  head = block;
}

EventArena::Stats EventArena::stats() noexcept { return arena().stats; }

void EventArena::trim() noexcept {
  ThreadArena& a = arena();
  a.release_lists();
  // `outstanding` tracks live blocks and must survive a trim; the traffic
  // counters restart so callers can measure a fresh interval.
  a.stats.fresh_blocks = 0;
  a.stats.reused_blocks = 0;
  a.stats.oversize = 0;
}

}  // namespace l2s::des
