#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/des/scheduler.hpp"

namespace l2s::des {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, TiesBreakBySubmissionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.at(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, AfterIsRelativeToNow) {
  Scheduler s;
  SimTime observed = -1;
  s.at(100, [&] {
    s.after(50, [&] { observed = s.now(); });
  });
  s.run();
  EXPECT_EQ(observed, 150);
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 100) s.after(1, chain);
  };
  s.at(0, chain);
  s.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.at(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, RunUntilAdvancesClockEvenWhenIdle) {
  Scheduler s;
  int fired = 0;
  s.at(10, [&] { ++fired; });
  s.at(100, [&] { ++fired; });
  s.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(100);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RejectsSchedulingInThePast) {
  Scheduler s;
  s.at(10, [] {});
  s.run();
  EXPECT_THROW(s.at(5, [] {}), l2s::Error);
  EXPECT_THROW(s.after(-1, [] {}), l2s::Error);
}

TEST(Scheduler, CountsProcessedEvents) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(Scheduler, ResetRestoresPristineState) {
  Scheduler s;
  s.at(5, [] {});
  s.run();
  s.at(10, [] {});
  s.reset();
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_processed(), 0u);
  // Scheduling at time 0 is legal again.
  s.at(0, [] {});
  s.run();
  EXPECT_EQ(s.events_processed(), 1u);
}

// Regression: the previous kernel stored events as std::function inside a
// std::priority_queue and had to move them out of top() through a
// const_cast, which both skirted UB and ruled out move-only callables.
// The indexed-heap kernel owns its slots outright, so step() must work
// with events that can only be moved.
TEST(Scheduler, MoveOnlyCallables) {
  Scheduler s;
  int observed = 0;
  auto payload = std::make_unique<int>(41);
  s.at(1, [&observed, p = std::move(payload)] { observed = *p + 1; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(observed, 42);

  // Same through after(), and while another event is pending.
  auto second = std::make_unique<int>(7);
  s.after(5, [&observed, p = std::move(second)] { observed += *p; });
  s.run();
  EXPECT_EQ(observed, 49);
}

// Property test: a random interleaving of at/after/run_until must fire
// every event exactly once, in (time, submission order) — the same order a
// sorted stable reference produces.
TEST(Scheduler, RandomScheduleMatchesSortedReference) {
  std::mt19937 gen(20000607);  // HPDC 2000 vintage
  for (int trial = 0; trial < 25; ++trial) {
    Scheduler s;
    // (time, submission index) of every scheduled event, in submission order.
    std::vector<std::pair<SimTime, int>> scheduled;
    std::vector<int> fired;
    int next_id = 0;

    auto schedule_one = [&] {
      const int id = next_id++;
      // Small time range on purpose: collisions exercise the FIFO tie-break.
      const auto t = static_cast<SimTime>(gen() % 50);
      if ((gen() & 1u) != 0u) {
        s.at(s.now() + t, [id, &fired] { fired.push_back(id); });
        scheduled.emplace_back(s.now() + t, id);
      } else {
        s.after(t, [id, &fired] { fired.push_back(id); });
        scheduled.emplace_back(s.now() + t, id);
      }
    };

    const int ops = 200 + static_cast<int>(gen() % 200);
    for (int op = 0; op < ops; ++op) {
      if ((gen() % 4u) != 0u) {
        schedule_one();
      } else {
        s.run_until(s.now() + static_cast<SimTime>(gen() % 30));
      }
    }
    s.run();

    // Stable sort by time reproduces the contract: time-sorted, ties FIFO.
    auto expected = scheduled;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(fired.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(fired[i], expected[i].second) << "trial " << trial << " pos " << i;
    EXPECT_EQ(s.events_processed(), expected.size());
  }
}

// An EventFn is scheduled by moving it in explicitly; an lvalue one does
// not compile, so it is never moved from behind the caller's back.
template <typename F>
constexpr bool kSchedulable =
    requires(Scheduler& s, F&& f) { s.at(SimTime{0}, std::forward<F>(f)); };
static_assert(kSchedulable<EventFn>);
static_assert(!kSchedulable<EventFn&>);
static_assert(kSchedulable<void (*)()>);

// Every event is stored in place: a callable over 48 bytes, aligned to
// more than 16 or whose move may throw does not convert to an EventFn, so
// scheduling one is a compile error rather than a heap allocation.
struct Capture48 {
  std::uint64_t words[6];
  void operator()() const {}
};
struct Capture56 {
  std::uint64_t words[7];
  void operator()() const {}
};
struct alignas(32) OverAligned {
  void operator()() const {}
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&& /*other*/) noexcept(false) {}
  void operator()() const {}
};
static_assert(sizeof(Capture48) == InlineEvent::kInlineSize);
static_assert(kSchedulable<Capture48> && std::is_convertible_v<Capture48, EventFn>);
static_assert(sizeof(Capture56) == 56);
static_assert(!kSchedulable<Capture56> && !std::is_convertible_v<Capture56, EventFn>);
static_assert(!kSchedulable<OverAligned> && !std::is_convertible_v<OverAligned, EventFn>);
static_assert(!kSchedulable<ThrowingMove> && !std::is_convertible_v<ThrowingMove, EventFn>);

TEST(Scheduler, EventFnIsScheduledByMove) {
  Scheduler s;
  int fired = 0;
  EventFn ev = [&fired] { ++fired; };
  s.after(3, std::move(ev));
  EXPECT_FALSE(ev);  // NOLINT(bugprone-use-after-move): moved-from is empty
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 3);
}

// The running handler sits in its slot while it schedules; enough events
// to add several slot chunks must leave its captures intact.
TEST(Scheduler, HandlerGrowingThePoolKeepsItsCaptures) {
  Scheduler s;
  std::uint64_t seen = 0;
  int children = 0;
  const std::uint64_t a = 0x1111, b = 0x2222, c = 0x3333;
  auto grow = [&s, &seen, &children, a, b, c] {  // 48 bytes: stored inline
    for (int i = 0; i < 20000; ++i) s.after(i % 7, [&children] { ++children; });
    seen = a + b + c;
  };
  static_assert(sizeof(grow) == InlineEvent::kInlineSize);
  s.at(1, grow);
  s.run();
  EXPECT_EQ(seen, 0x6666u);
  EXPECT_EQ(children, 20000);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, ThrowingHandlerReleasesItsSlot) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  int later = 0;
  s.at(1, [token] { throw std::runtime_error("handler failed"); });
  s.at(2, [&later] { ++later; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(s.run(), std::runtime_error);
  // The throwing callable is destroyed and only the later event remains.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(s.now(), 1);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.events_processed(), 1u);
  s.run();
  EXPECT_EQ(later, 1);
  EXPECT_EQ(s.pending(), 0u);
  // Later runs reuse the pool normally.
  for (int i = 0; i < 100; ++i) s.after(i, [&later] { ++later; });
  EXPECT_EQ(s.pending(), 100u);
  s.run();
  EXPECT_EQ(later, 101);
}

TEST(Scheduler, ResetInsideHandlerIsRejected) {
  Scheduler s;
  int after_reset = 0;
  s.at(1, [&s] { s.reset(); });
  s.at(2, [&after_reset] { ++after_reset; });
  EXPECT_THROW(s.run(), l2s::Error);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(after_reset, 1);
  // Outside a handler, reset() still works.
  s.at(5, [] {});
  s.reset();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, ZeroDelaySelfScheduleRunsAtSameTime) {
  Scheduler s;
  std::vector<int> order;
  s.at(5, [&] {
    order.push_back(1);
    s.after(0, [&] { order.push_back(2); });
  });
  s.at(5, [&] { order.push_back(3); });
  s.run();
  // The zero-delay event was submitted later, so it fires after event 3.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// --- the two-tier queue: FIFO lanes for recurring delays, heap for the rest

/// Fired ids must be a prefix of the scheduled events stably sorted by
/// time: every event is scheduled at or after now(), so whatever has fired
/// so far precedes, in (time, seq) order, whatever is still pending.
void expect_sorted_prefix(const std::vector<std::pair<SimTime, int>>& scheduled,
                          const std::vector<int>& fired, int trial) {
  auto expected = scheduled;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_LE(fired.size(), expected.size()) << "trial " << trial;
  for (std::size_t i = 0; i < fired.size(); ++i)
    ASSERT_EQ(fired[i], expected[i].second) << "trial " << trial << " pos " << i;
}

// Property test for the lanes: schedules that mix a few recurring delays
// (which take lanes, drain them and hand them to the next phase's delays)
// with zero and wide random delays (which stay in the heap), handlers that
// schedule more events, run_until stops, a reset() with events pending and
// handlers that throw. The fire order must be the stable (time, seq) sort
// of what was scheduled, and pending()/empty() must count every event.
TEST(Scheduler, TwoTierRandomScheduleMatchesSortedReference) {
  struct Boom {};
  std::mt19937 gen(20000801);
  for (int trial = 0; trial < 40; ++trial) {
    Scheduler s;
    std::vector<std::pair<SimTime, int>> scheduled;  // this segment, in submission order
    std::vector<int> fired;
    int next_id = 0;
    // Twelve candidate recurring delays, more than there are lanes; each
    // phase draws three of them.
    const std::array<SimTime, 12> pool{1, 3, 7, 50, 1000, 3000, 6128, 6129, 9000,
                                       12000, 40000, 250000};
    std::array<SimTime, 3> recurring{};
    auto new_phase = [&] {
      for (auto& d : recurring) d = pool[gen() % pool.size()];
    };
    new_phase();

    std::function<void(SimTime)> schedule;
    auto draw_delay = [&]() -> SimTime {
      const auto r = static_cast<unsigned>(gen() % 20);
      if (r < 12) return recurring[r % recurring.size()];
      if (r < 14) return 0;
      return static_cast<SimTime>(gen() % 1'000'000);
    };
    schedule = [&](SimTime delay) {
      const int id = next_id++;
      // Some handlers schedule a child of their own; a few throw.
      const auto kind = static_cast<unsigned>(gen() % 100);
      auto handler = [&, id, kind] {
        fired.push_back(id);
        if (kind < 15) schedule(draw_delay());
        if (kind == 99) throw Boom{};
      };
      if ((gen() & 1u) != 0u) {
        s.at(s.now() + delay, handler);
      } else {
        s.after(delay, handler);
      }
      scheduled.emplace_back(s.now() + delay, id);
    };
    auto run_to_end = [&] {
      while (true) {
        try {
          s.run();
          return;
        } catch (const Boom&) {
        }
      }
    };

    const int ops = 600 + static_cast<int>(gen() % 600);
    for (int op = 0; op < ops; ++op) {
      const auto r = static_cast<unsigned>(gen() % 100);
      if (r < 70) {
        // Bursts of one delay, like a broadcast's per-message costs.
        const SimTime delay = draw_delay();
        const int burst = 1 + static_cast<int>(gen() % 4);
        for (int b = 0; b < burst; ++b) schedule(delay);
      } else if (r < 92) {
        try {
          s.run_until(s.now() + static_cast<SimTime>(gen() % 20000));
        } catch (const Boom&) {
        }
      } else if (r < 98) {
        new_phase();
      } else {
        expect_sorted_prefix(scheduled, fired, trial);
        if (::testing::Test::HasFatalFailure()) return;
        s.reset();
        EXPECT_EQ(s.pending(), 0u);
        EXPECT_TRUE(s.empty());
        scheduled.clear();
        fired.clear();
      }
      ASSERT_EQ(s.pending(), scheduled.size() - fired.size()) << "trial " << trial;
      ASSERT_EQ(s.empty(), scheduled.size() == fired.size()) << "trial " << trial;
    }
    run_to_end();
    ASSERT_EQ(fired.size(), scheduled.size()) << "trial " << trial;
    expect_sorted_prefix(scheduled, fired, trial);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_TRUE(s.empty());
  }
}

// More recurring delays than lanes: twelve delays arrive in bursts, so
// each claims a lane while one is idle and the rest share the heap. Every
// event still fires in (time, seq) order, and pending()/empty() count the
// events of both tiers, including a lane's queued keys behind its head.
TEST(Scheduler, MoreRecurringDelaysThanLanesKeepOrderAndCount) {
  Scheduler s;
  std::vector<std::pair<SimTime, int>> scheduled;
  std::vector<int> fired;
  int next_id = 0;
  auto schedule = [&](SimTime delay) {
    const int id = next_id++;
    s.after(delay, [id, &fired] { fired.push_back(id); });
    scheduled.emplace_back(s.now() + delay, id);
  };
  // A burst of one delay: the first key reaches the heap, the second
  // claims an idle lane, the rest queue behind it.
  for (int k = 0; k < 5; ++k) schedule(400);
  EXPECT_EQ(s.pending(), 5u);
  EXPECT_FALSE(s.empty());
  for (int round = 0; round < 30; ++round) {
    for (SimTime d = 1; d <= 12; ++d)
      for (int k = 0; k < 3; ++k) schedule(d * 97 + round % 5);
    EXPECT_EQ(s.pending(), scheduled.size() - fired.size());
    s.run_until(s.now() + 300);
    EXPECT_EQ(s.pending(), scheduled.size() - fired.size());
    EXPECT_EQ(s.empty(), scheduled.size() == fired.size());
  }
  while (s.step()) EXPECT_EQ(s.pending(), scheduled.size() - fired.size());
  EXPECT_TRUE(s.empty());
  ASSERT_EQ(fired.size(), scheduled.size());
  expect_sorted_prefix(scheduled, fired, 0);
}

// A lane changes delay only while empty: with every lane busy holding a
// long delay, a short delay that recurs stays in the heap, and its events
// still fire first, in submission order.
TEST(Scheduler, LaneOwnershipChangesOnlyWhenIdle) {
  Scheduler s;
  std::vector<int> order;
  // Fill every lane with a long delay (two in a row each, then more).
  for (SimTime d = 0; d < 8; ++d)
    for (int k = 0; k < 3; ++k)
      s.after(10'000 + d, [&order, d] { order.push_back(static_cast<int>(d)); });
  // A short delay now recurs at the heap with no idle lane: its events
  // must still fire first, in submission order.
  for (int k = 0; k < 4; ++k) s.after(5, [&order, k] { order.push_back(100 + k); });
  EXPECT_EQ(s.pending(), 28u);
  s.run_until(9'000);
  EXPECT_EQ(order, (std::vector<int>{100, 101, 102, 103}));
  s.run();
  ASSERT_EQ(order.size(), 28u);
  for (std::size_t i = 4; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<int>((i - 4) / 3)) << "pos " << i;
}

// A throw while building the callable leaves the queue as it was, in
// either tier, and the next events keep their order. The callable's move
// cannot throw, as every event's must; copying it into the slot does.
TEST(Scheduler, ThrowingConstructionLeavesTheQueueUnchanged) {
  struct ThrowOnCopy {
    bool armed = true;
    ThrowOnCopy() = default;
    ThrowOnCopy(const ThrowOnCopy& other) : armed(other.armed) {
      if (armed) throw std::runtime_error("copy failed");
    }
    ThrowOnCopy(ThrowOnCopy&& other) noexcept : armed(other.armed) {}
    void operator()() const {}
  };
  Scheduler s;
  std::vector<int> order;
  for (int k = 0; k < 3; ++k) s.after(7, [&order, k] { order.push_back(k); });  // a lane
  s.after(20, [&order] { order.push_back(10); });                               // the heap
  const ThrowOnCopy bad;
  EXPECT_THROW(s.after(7, bad), std::runtime_error);
  EXPECT_THROW(s.after(3, bad), std::runtime_error);
  EXPECT_THROW(s.after(3, bad), std::runtime_error);
  EXPECT_EQ(s.pending(), 4u);
  s.after(7, [&order] { order.push_back(3); });
  s.after(3, [&order] { order.push_back(-1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 10}));
  EXPECT_EQ(s.events_processed(), 6u);
}

}  // namespace
}  // namespace l2s::des
