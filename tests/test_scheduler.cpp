#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
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

// Captures larger than the inline buffer spill to the event arena and must
// still fire exactly once with their state intact.
TEST(Scheduler, OversizedCapturesSpillAndFire) {
  Scheduler s;
  struct Big {
    std::uint64_t a[12];  // 96 bytes: over InlineEvent::kInlineSize
  };
  Big big{};
  for (int i = 0; i < 12; ++i) big.a[i] = static_cast<std::uint64_t>(i + 1);
  std::uint64_t sum = 0;
  s.at(1, [big, &sum] {
    for (const auto v : big.a) sum += v;
  });
  s.run();
  EXPECT_EQ(sum, 78u);

  // Steady state: repeated spills recycle arena blocks instead of growing.
  const auto before = EventArena::stats();
  for (int round = 0; round < 100; ++round) {
    s.after(1, [big, &sum] { sum += big.a[0]; });
    s.run();
  }
  const auto after = EventArena::stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_GE(after.reused_blocks, before.reused_blocks + 99);
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

  // Same for a callable spilled to the arena.
  std::array<std::uint64_t, 12> big{};
  big.fill(5);
  std::uint64_t sum = 0;
  s.after(1, [&s, &sum, &children, big] {
    for (int i = 0; i < 20000; ++i) s.after(1, [&children] { ++children; });
    for (const auto v : big) sum += v;
  });
  s.run();
  EXPECT_EQ(sum, 60u);
  EXPECT_EQ(children, 40000);
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

}  // namespace
}  // namespace l2s::des
