// Discrete-event simulation kernel.
//
// A Scheduler owns the simulation clock and the set of pending events.
// Events scheduled for the same instant fire in submission order (a strict
// monotone sequence number breaks ties), which makes runs deterministic —
// a property every reproduction experiment in this repository relies on.
//
// Kernel layout (the trace replays push hundreds of millions of events
// through here, so the hot path is allocation-free and defined inline):
//
//  * Events are InlineEvent callables (see event.hpp), always stored in
//    place: an oversized, over-aligned or throwing-move capture does not
//    compile, so nothing is left to count at run time.
//  * Each event is built once, directly in its slot: at()/after() take the
//    callable itself and construct it there, and step() invokes it where
//    it sits. Slots live in chunks that double in size and never move, so
//    a handler may schedule events (growing the pool) while its own
//    callable runs; the slot is freed after the handler returns or throws.
//  * The pending set is ordered by 16-byte POD keys `(time, seq·slot)`
//    and has two tiers. Up to kLanes FIFO *lanes* each hold the keys of
//    one recurring delay: the clock never goes back and sequence numbers
//    only grow, so keys appended with one delay arrive already in
//    (time, seq) order and a lane never sorts. Every other key goes to a
//    4-ary implicit min-heap. step() fires the earliest of the heap top
//    and the lane heads, so each event keeps its time, sequence number
//    and tie order whichever tier holds it. The model's fixed per-message
//    costs (CPU, NIC and switch time of every VIA message) are the
//    recurring delays; the heap keeps the long-lived resource completions
//    and one-off timers. A delay takes an idle lane only when it reaches
//    the heap twice in a row, and a lane changes delay only while empty.
//    DESIGN.md §6 has the measurements behind both rules.
//
// History note: the previous std::priority_queue-based kernel had to move
// the type-erased callable out of `top()` through a `const_cast` (top()
// returns const&), which is UB-adjacent and also forced std::function —
// i.e. copyable — events. The indexed queue owns its storage outright, so
// move-only callables are supported and `step()` needs no casts; a
// regression test (Scheduler.MoveOnlyCallables) pins this down. The old
// kernel survives as the baseline in bench/legacy_scheduler.hpp, measured
// against this one by bench/des_kernel_bench.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
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
  Scheduler() { clear_lanes(); }
  // Neither copyable nor movable: resources, nodes and the interconnect
  // hold long-lived Scheduler&.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Schedule `fn` at absolute simulated time `t` (>= now()). `fn` is any
  /// `void()` callable, built directly in the event's slot; an EventFn
  /// must be passed as an rvalue (an lvalue one is rejected, never moved
  /// from behind the caller's back). A throw leaves the queue unchanged.
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
      push(Key{(next_seq_ << kSlotBits) | slot, t});
    } catch (...) {
      release_slot(slot);
      throw;
    }
    ++next_seq_;
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
    const unsigned lane = first_lane_;
    Key top = heads_[lane];
    const bool from_heap = !heap_.empty() && earlier(heap_[0], top);
    if (from_heap) {
      top = heap_[0];
    } else if (top.seq_slot == kIdle.seq_slot) {
      return false;  // the heap and every lane are empty
    }
    const auto slot = static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
    EventFn& fn = slot_at(slot);
    // The due slot is a likely cache miss at deep backlogs; start the load
    // now so it overlaps the pop below.
    __builtin_prefetch(&fn, 1 /*write: emptied after the handler*/);
    if (from_heap) {
      pop_heap();
    } else {
      pop_lane(lane);
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
    while (next_time() <= t && step()) {
    }
    now_ = t;
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Events waiting in the heap and in the lanes.
  [[nodiscard]] std::size_t pending() const {
    std::size_t n = heap_.size();
    for (const Lane& l : lanes_) n += l.count;
    return n;
  }
  [[nodiscard]] bool empty() const { return pending() == 0; }

  /// Drop all pending events and reset the clock (new run). Capacity is
  /// retained so a reused scheduler stays allocation-free. Not callable
  /// from inside a handler, whose own callable it would destroy.
  void reset();

 private:
  // 16-byte POD key; the callable lives in its slot and never moves while
  // keys are sifted or queued. The sequence number and slot index share
  // one qword (seq in the high 40 bits, slot in the low 24), so ordering by
  // (time, seq_slot) IS ordering by (time, seq) — seq is unique — and four
  // heap children pack into a single 64-byte cache line.
  struct alignas(16) Key {
    std::uint64_t seq_slot;  ///< (seq << kSlotBits) | slot — low qword
    SimTime time;            ///< high qword: compared first
  };
  static constexpr unsigned kSlotBits = 24;  // <= 16.7M pending events
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  // ~1.1e12 events per run. The last sequence number is never issued, so
  // no event's key equals kIdle.
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << 40) - 1;

  /// The head of an empty lane: later than every event's key.
  static constexpr Key kIdle{~std::uint64_t{0}, std::numeric_limits<SimTime>::max()};
  /// The delay of a lane no delay has claimed yet (delays are >= 0).
  static constexpr SimTime kNoDelay = -1;

  // Slot chunk k holds kFirstChunk << k slots, so the pool doubles with
  // each chunk (a handful of allocations however deep the backlog) and
  // slot s lives in the chunk numbered by the bit width of s + kFirstChunk.
  static constexpr unsigned kFirstChunkBits = 6;
  static constexpr std::uint32_t kFirstChunk = std::uint32_t{1} << kFirstChunkBits;
  static constexpr std::size_t kMaxChunks = kSlotBits - kFirstChunkBits + 1;

  /// A FIFO of the keys of one delay: a ring that doubles when full.
  struct Lane {
    std::unique_ptr<Key[]> ring;
    std::uint32_t capacity = 0;  ///< 0 or a power of two
    std::uint32_t head = 0;      ///< ring index of the earliest key
    std::uint32_t count = 0;     ///< keys queued
  };
  static constexpr unsigned kLanes = 8;

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

  /// Index of `a` or `b`, whichever holds the earlier key. Picked by a
  /// mask, so the compiler emits no data-dependent branch.
  static unsigned earlier_of(const Key* keys, unsigned a, unsigned b) {
    const unsigned take_b = 0u - static_cast<unsigned>(earlier(keys[b], keys[a]));
    return a ^ ((a ^ b) & take_b);
  }

  /// The lane with the earliest head (an idle lane when all are idle),
  /// by a three-round tournament.
  [[nodiscard]] unsigned earliest_lane() const {
    static_assert(kLanes == 8);
    const Key* h = heads_.data();
    const unsigned a = earlier_of(h, 0, 1);
    const unsigned b = earlier_of(h, 2, 3);
    const unsigned c = earlier_of(h, 4, 5);
    const unsigned d = earlier_of(h, 6, 7);
    return earlier_of(h, earlier_of(h, a, b), earlier_of(h, c, d));
  }

  /// Time of the next event to fire; kIdle.time when none is pending.
  [[nodiscard]] SimTime next_time() const {
    const SimTime lane = heads_[first_lane_].time;
    return heap_.empty() || lane < heap_[0].time ? lane : heap_[0].time;
  }

  /// File a key under its delay: its lane if one holds that delay, an
  /// idle lane if the delay just reached the heap too, else the heap.
  /// Leaves everything unchanged if it throws.
  void push(const Key& key) {
    const SimTime delay = key.time - now_;
    unsigned owner = 0;
    for (unsigned i = 0; i < kLanes; ++i) owner |= unsigned{delays_[i] == delay} << i;
    if (owner != 0) {
      push_lane(static_cast<unsigned>(std::countr_zero(owner)), key);
      return;
    }
    if (delay == heap_delay_) {
      unsigned idle = 0;
      for (unsigned i = 0; i < kLanes; ++i) idle |= unsigned{lanes_[i].count == 0} << i;
      if (idle != 0) {
        const auto lane = static_cast<unsigned>(std::countr_zero(idle));
        push_lane(lane, key);
        delays_[lane] = delay;  // the lane was empty: its order holds
        return;
      }
    }
    heap_.push_back(key);
    sift_up(heap_.size() - 1);
    heap_delay_ = delay;
  }

  void push_lane(unsigned lane, const Key& key) {
    Lane& l = lanes_[lane];
    if (l.count == l.capacity) grow_lane(l);
    l.ring[(l.head + l.count) & (l.capacity - 1)] = key;
    if (l.count++ == 0) {
      heads_[lane] = key;
      first_lane_ = earlier_of(heads_.data(), first_lane_, lane);
    }
  }

  void pop_lane(unsigned lane) {
    Lane& l = lanes_[lane];
    l.head = (l.head + 1) & (l.capacity - 1);
    --l.count;
    heads_[lane] = l.count != 0 ? l.ring[l.head] : kIdle;
    first_lane_ = earliest_lane();
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
  static void grow_lane(Lane& l);
  void clear_lanes();

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

  /// Remove the heap's root.
  void pop_heap();

  static constexpr std::size_t kArity = 4;

  std::array<Key, kLanes> heads_;         ///< each lane's earliest key, or kIdle
  /// A lane whose head is the earliest: updated when a lane pops or an
  /// empty lane takes a key, so a heap pop never scans the lanes.
  unsigned first_lane_ = 0;
  std::array<SimTime, kLanes> delays_;    ///< each lane's delay, or kNoDelay
  SimTime heap_delay_ = kNoDelay;         ///< delay of the last key the heap took
  std::vector<Key> heap_;
  std::array<Lane, kLanes> lanes_;
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
