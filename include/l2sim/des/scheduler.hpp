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
//  * The priority queue is a 4-ary implicit min-heap over 16-byte POD
//    keys `(time, seq·slot)`. Sifting moves only these keys; the
//    callables themselves sit still in a slot pool recycled through a
//    free list. A 4-ary heap halves the tree depth of the binary heap the
//    kernel used to borrow from std::priority_queue, and the four
//    children of a node share one 64-byte cache line of keys.
//  * step() relocates the due event into a local before invoking it, so
//    handlers may schedule new events (growing the pool) safely.
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

#include <cstdint>
#include <cstring>
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

  /// Schedule `fn` at absolute simulated time `t` (>= now()).
  void at(SimTime t, EventFn fn) {
    L2S_REQUIRE(t >= now_);
    L2S_REQUIRE(next_seq_ < kMaxSeq);
    const std::uint32_t slot = acquire_slot(std::move(fn));
    heap_.push_back(Key{(next_seq_++ << kSlotBits) | slot, t});
    sift_up(heap_.size() - 1);
  }

  /// Schedule `fn` `delay` nanoseconds from now (delay >= 0).
  void after(SimTime delay, EventFn fn) {
    L2S_REQUIRE(delay >= 0);
    at(now_ + delay, std::move(fn));
  }

  [[nodiscard]] SimTime now() const { return now_; }

  /// Execute the next event. Returns false if no events remain.
  bool step() {
    if (heap_.empty()) return false;
    const Key top = heap_[0];
    const auto slot = static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
    // The due slot is a likely cache miss at deep backlogs; start the load
    // now so it overlaps the sift-down below.
    __builtin_prefetch(&slots_[slot], 1 /*write: moved-from*/);
    const std::size_t last = heap_.size() - 1;
    if (last > 0) {
      heap_[0] = heap_[last];
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    // Relocate the callable into a local before invoking: the handler may
    // schedule further events, and a slot-pool grow must not move a
    // running callable out from under itself.
    EventFn fn = std::move(slots_[slot]);  // move leaves the slot empty
    free_slots_.push_back(slot);
    now_ = top.time;
    ++processed_;
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
  /// retained so a reused scheduler stays allocation-free.
  void reset();

 private:
  // 16-byte POD heap key; the callable lives in slots_[slot] and never
  // moves while sifting. The sequence number and slot index share one
  // qword (seq in the high 40 bits, slot in the low 24), so ordering by
  // (time, seq_slot) IS ordering by (time, seq) — seq is unique — and
  // four children pack into a single 64-byte cache line.
  struct Key {
    std::uint64_t seq_slot;  ///< (seq << kSlotBits) | slot — low qword
    SimTime time;            ///< high qword: compared first
  };
  static constexpr unsigned kSlotBits = 24;  // <= 16.7M pending events
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << 40;  // ~1.1e12/run

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

  [[nodiscard]] std::uint32_t acquire_slot(EventFn&& fn) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
      return slot;
    }
    L2S_REQUIRE(slots_.size() < (std::size_t{1} << kSlotBits));
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

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
  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace l2s::des
