#include <gtest/gtest.h>

#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/des/resource.hpp"

namespace l2s::des {
namespace {

TEST(Resource, ServesFifo) {
  Scheduler s;
  Resource r(s, "cpu");
  std::vector<int> order;
  r.submit(10, [&] { order.push_back(1); });
  r.submit(10, [&] { order.push_back(2); });
  r.submit(10, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

// An idle submit schedules its completion at once; a queued one when its
// predecessor completes. An event scheduled in between shows the two.
TEST(Resource, IdleAndQueuedSubmitsFireInSubmissionOrder) {
  Scheduler s;
  Resource r(s, "cpu");
  std::vector<char> order;
  r.submit(0, [&] { order.push_back('A'); });  // idle: starts now
  r.submit(0, [&] { order.push_back('B'); });  // queued behind A
  s.at(0, [&] {
    order.push_back('X');
    r.submit(0, [&] { order.push_back('C'); });  // queued behind B
  });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'X', 'B', 'C'}));
  // Drained: the next submit starts at once again.
  r.submit(0, [&] { order.push_back('D'); });
  EXPECT_TRUE(r.busy());
  EXPECT_EQ(r.queue_length(), 0u);
  s.run();
  EXPECT_EQ(order.back(), 'D');
  EXPECT_EQ(r.jobs_completed(), 4u);
}

TEST(Resource, QueueingDelaysLaterJobs) {
  Scheduler s;
  Resource r(s, "disk");
  SimTime first = 0;
  SimTime second = 0;
  r.submit(100, [&] { first = s.now(); });
  r.submit(100, [&] { second = s.now(); });
  s.run();
  EXPECT_EQ(first, 100);
  EXPECT_EQ(second, 200);
}

TEST(Resource, TracksBusyTimeAndJobs) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(30, [] {});
  r.submit(20, [] {});
  s.run();
  EXPECT_EQ(r.busy_time(), 50);
  EXPECT_EQ(r.jobs_completed(), 2u);
}

TEST(Resource, UtilizationFraction) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(25, [] {});
  s.run();
  s.run_until(100);
  EXPECT_DOUBLE_EQ(r.utilization(100), 0.25);
  EXPECT_DOUBLE_EQ(r.utilization(0), 0.0);
}

TEST(Resource, IdleBetweenBursts) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(10, [] {});
  s.run();
  EXPECT_FALSE(r.busy());
  // A job submitted later starts immediately (no phantom queueing).
  s.run_until(100);
  SimTime done_at = 0;
  r.submit(5, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 105);
}

TEST(Resource, CompletionMayResubmit) {
  Scheduler s;
  Resource r(s, "x");
  int rounds = 0;
  std::function<void()> again = [&] {
    if (++rounds < 5) r.submit(10, again);
  };
  r.submit(10, again);
  s.run();
  EXPECT_EQ(rounds, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(Resource, ZeroServiceTimeJobs) {
  Scheduler s;
  Resource r(s, "x");
  int done = 0;
  r.submit(0, [&] { ++done; });
  r.submit(0, [&] { ++done; });
  s.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(s.now(), 0);
}

TEST(Resource, NegativeServiceRejected) {
  Scheduler s;
  Resource r(s, "x");
  EXPECT_THROW(r.submit(-1, [] {}), l2s::Error);
}

TEST(Resource, ResetStatsKeepsQueue) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(10, [] {});
  s.run();
  r.reset_stats();
  EXPECT_EQ(r.busy_time(), 0);
  EXPECT_EQ(r.jobs_completed(), 0u);
  r.submit(10, [] {});
  s.run();
  EXPECT_EQ(r.busy_time(), 10);
}

TEST(Resource, QueueLengthReflectsWaiters) {
  Scheduler s;
  Resource r(s, "x");
  r.submit(10, [] {});
  r.submit(10, [] {});
  r.submit(10, [] {});
  // One in service, two waiting.
  EXPECT_TRUE(r.busy());
  EXPECT_EQ(r.queue_length(), 2u);
  s.run();
  EXPECT_EQ(r.queue_length(), 0u);
}

}  // namespace
}  // namespace l2s::des
