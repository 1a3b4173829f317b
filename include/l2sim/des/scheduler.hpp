// Discrete-event simulation kernel.
//
// A Scheduler owns the simulation clock and a min-heap of pending events.
// Events scheduled for the same instant fire in submission order (a strict
// monotone sequence number breaks ties), which makes runs deterministic —
// a property every reproduction experiment in this repository relies on.
//
// Kernel layout (the trace replays push hundreds of millions of events
// through here, so the hot path is allocation-free and defined inline):
//
//  * Events are InlineEvent callables (see event.hpp): captures up to 48
//    bytes live inline, larger ones in a thread-local free-list arena.
//  * Each event is built once, directly in its slot: at()/after() take the
//    callable itself and construct it there, and step() invokes it where
//    it sits. Slots live in chunks that double in size and never move, so
//    a handler may schedule events (growing the pool) while its own
//    callable runs; the slot is freed after the handler returns or throws.
//  * The priority queue is a 4-ary implicit min-heap over 16-byte POD
//    keys `(time, seq·slot)`. Sifting moves only these keys. A 4-ary heap
//    halves the tree depth of the binary heap the kernel used to borrow
//    from std::priority_queue, and the four children of a node share one
//    64-byte cache line of keys.
//
// History note: the previous std::priority_queue-based kernel had to move
// the type-erased callable out of `top()` through a `const_cast` (top()
// returns const&), which is UB-adjacent and also forced std::function —
// i.e. copyable — events. The indexed heap owns its storage outright, so
// move-only callables are supported and `step()` needs no casts; a
// regression test (Scheduler.MoveOnlyCallables) pins this down. The old
// kernel survives as the baseline in bench/legacy_scheduler.hpp, measured
// against this one by bench/des_kernel_bench.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/common/units.hpp"
#include "l2sim/des/event.hpp"

namespace l2s::des {

using EventFn = InlineEvent;

class Scheduler {
 public:
  Scheduler() = default;
  // Neither copyable nor movable: resources, nodes and the interconnect
  // hold long-lived Scheduler&.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Schedule `fn` at absolute simulated time `t` (>= now()). `fn` is any
  /// `void()` callable, built directly in the event's slot; an EventFn
  /// must be passed as an rvalue (an lvalue one is rejected, never moved
  /// from behind the caller's back).
  template <typename F>
    requires std::is_constructible_v<EventFn, F>
  void at(SimTime t, F&& fn) {
    L2S_REQUIRE(t >= now_);
    L2S_REQUIRE(next_seq_ < kMaxSeq);
    const std::uint32_t slot = acquire_slot();
    try {
      if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
        slot_at(slot) = std::forward<F>(fn);
      } else {
        slot_at(slot).emplace(std::forward<F>(fn));
      }
      heap_.push_back(Key{(next_seq_ << kSlotBits) | slot, t});
    } catch (...) {
      release_slot(slot);
      throw;
    }
    ++next_seq_;
    sift_up(heap_.size() - 1);
  }

  /// Schedule `fn` `delay` nanoseconds from now (delay >= 0).
  template <typename F>
    requires std::is_constructible_v<EventFn, F>
  void after(SimTime delay, F&& fn) {
    L2S_REQUIRE(delay >= 0);
    at(now_ + delay, std::forward<F>(fn));
  }

  [[nodiscard]] SimTime now() const { return now_; }

  /// Execute the next event. Returns false if no events remain.
  bool step() {
    if (heap_.empty()) return false;
    const Key top = heap_[0];
    const auto slot = static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
    EventFn& fn = slot_at(slot);
    // The due slot is a likely cache miss at deep backlogs; start the load
    // now so it overlaps the sift-down below.
    __builtin_prefetch(&fn, 1 /*write: emptied after the handler*/);
    const std::size_t last = heap_.size() - 1;
    if (last > 0) {
      heap_[0] = heap_[last];
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    now_ = top.time;
    ++processed_;
    // The callable runs in its slot. Chunks never move, so the handler may
    // schedule further events, growing the pool, while it runs; the slot
    // stays taken until the handler returns or throws.
    const Running running(*this, slot);
    fn();
    return true;
  }

  /// Run until the event queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run events with time <= `t`; afterwards now() == t (even if idle).
  void run_until(SimTime t) {
    L2S_REQUIRE(t >= now_);
    while (!heap_.empty() && heap_[0].time <= t) step();
    now_ = t;
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Drop all pending events and reset the clock (new run). Capacity is
  /// retained so a reused scheduler stays allocation-free. Not callable
  /// from inside a handler, whose own callable it would destroy.
  void reset();

 private:
  // 16-byte POD heap key; the callable lives in its slot and never moves
  // while sifting. The sequence number and slot index share one qword
  // (seq in the high 40 bits, slot in the low 24), so ordering by
  // (time, seq_slot) IS ordering by (time, seq) — seq is unique — and four
  // children pack into a single 64-byte cache line.
  struct Key {
    std::uint64_t seq_slot;  ///< (seq << kSlotBits) | slot — low qword
    SimTime time;            ///< high qword: compared first
  };
  static constexpr unsigned kSlotBits = 24;  // <= 16.7M pending events
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << 40;  // ~1.1e12/run

  // Slot chunk k holds kFirstChunk << k slots, so the pool doubles with
  // each chunk (a handful of allocations however deep the backlog) and
  // slot s lives in the chunk numbered by the bit width of s + kFirstChunk.
  static constexpr unsigned kFirstChunkBits = 6;
  static constexpr std::uint32_t kFirstChunk = std::uint32_t{1} << kFirstChunkBits;
  static constexpr std::size_t kMaxChunks = kSlotBits - kFirstChunkBits + 1;

  /// Marks a handler on the stack and frees its slot when it returns or
  /// throws.
  class Running {
   public:
    Running(Scheduler& s, std::uint32_t slot) : s_(s), slot_(slot) { ++s_.running_; }
    ~Running() {
      --s_.running_;
      s_.release_slot(slot_);
    }
    Running(const Running&) = delete;
    Running& operator=(const Running&) = delete;

   private:
    Scheduler& s_;
    std::uint32_t slot_;
  };

  static bool earlier(const Key& a, const Key& b) {
#if defined(__SIZEOF_INT128__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // Single compare (cmp/sbb, no branch): time occupies the high qword
    // of the 128-bit image, seq the high bits of the low qword (time is
    // non-negative).
    __extension__ using U128 = unsigned __int128;
    U128 ka;
    U128 kb;
    std::memcpy(&ka, &a, sizeof(ka));
    std::memcpy(&kb, &b, sizeof(kb));
    return ka < kb;
#else
    if (a.time != b.time) return a.time < b.time;
    return a.seq_slot < b.seq_slot;
#endif
  }

  [[nodiscard]] EventFn& slot_at(std::uint32_t slot) {
    const std::uint32_t j = slot + kFirstChunk;
    const auto chunk = static_cast<unsigned>(std::bit_width(j)) - 1 - kFirstChunkBits;
    return chunks_[chunk][j - (kFirstChunk << chunk)];
  }

  /// An empty slot: a freed one, else the next never-used one (adding a
  /// chunk when the pool is full).
  [[nodiscard]] std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (used_ == capacity_) grow();
    return used_++;
  }

  /// Empty the slot and return it to the free list. Never allocates:
  /// grow() reserves free-list room for every slot.
  void release_slot(std::uint32_t slot) noexcept {
    slot_at(slot) = nullptr;
    free_slots_.push_back(slot);
  }

  void grow();

  void sift_up(std::size_t i) {
    Key* const h = heap_.data();
    const Key key = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(key, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = key;
  }

  void sift_down(std::size_t i);

  static constexpr std::size_t kArity = 4;

  std::vector<Key> heap_;
  std::array<std::unique_ptr<EventFn[]>, kMaxChunks> chunks_;
  std::uint32_t capacity_ = 0;  ///< slots in the allocated chunks
  std::uint32_t used_ = 0;      ///< slots ever handed out since reset()
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint32_t running_ = 0;  ///< handlers on the stack
};

}  // namespace l2s::des
