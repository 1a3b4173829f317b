#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
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

// Samples of busy_time() every 50 ms read exactly the service given so far,
// during one 300 ms job and during a run of three 100 ms jobs, so no window
// is credited more busy time than its length.
TEST(Resource, BusyTimeCountsTheElapsedServiceOfTheJobInService) {
  const SimTime ms = seconds_to_simtime(0.001);
  for (const bool as_run : {false, true}) {
    Scheduler s;
    Resource r(s, "cpu");
    if (as_run) {
      r.submit_run(100 * ms, 3, [] {});
    } else {
      r.submit(300 * ms, [] {});
    }
    std::vector<SimTime> seen;
    for (int t = 0; t <= 400; t += 50) s.at(t * ms, [&] { seen.push_back(r.busy_time()); });
    s.run();
    std::vector<SimTime> want;
    for (int t = 0; t <= 400; t += 50) want.push_back(std::min(t, 300) * ms);
    EXPECT_EQ(seen, want) << (as_run ? "run" : "single job");
    EXPECT_DOUBLE_EQ(r.utilization(400 * ms), 0.75);
  }
}

// A reset in the middle of a job counts only the service after it.
TEST(Resource, ResetMidJobCountsOnlyTheServiceAfterIt) {
  const SimTime ms = seconds_to_simtime(0.001);
  Scheduler s;
  Resource r(s, "cpu");
  r.submit(300 * ms, [] {});
  s.run_until(100 * ms);
  r.reset_stats();
  EXPECT_EQ(r.busy_time(), 0);
  s.run_until(150 * ms);
  EXPECT_EQ(r.busy_time(), 50 * ms);
  s.run();
  EXPECT_EQ(r.busy_time(), 200 * ms);
  EXPECT_EQ(r.jobs_completed(), 1u);
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

// --- runs -------------------------------------------------------------------

// What one scenario fires, in order: (time, label).
using Trace = std::vector<std::pair<SimTime, char>>;

// A run of k jobs is k single submits: every step fires at the same time,
// in the same order relative to other events, as the matching continuation.
TEST(ResourceRun, CompletesAtTheTimesOfSingleSubmits) {
  const auto scenario = [](bool as_run) {
    Scheduler s;
    Resource r(s, "cpu");
    Trace fired;
    const auto note = [&](char c) { fired.emplace_back(s.now(), c); };
    r.submit(7, [&] { note('a'); });  // in service when the k jobs arrive
    if (as_run) {
      r.submit_run(10, 4, [&] {
        note('k');
        // Ties with the next job's completion, scheduled just before it.
        s.after(10, [&] { note('x'); });
      });
    } else {
      for (int i = 0; i < 4; ++i) {
        r.submit(10, [&] {
          note('k');
          s.after(10, [&] { note('x'); });
        });
      }
    }
    r.submit(3, [&] { note('z'); });  // queued behind all four
    s.at(27, [&] { note('p'); });     // ties with the second job's completion
    s.run();
    return std::pair{fired, std::pair{r.jobs_completed(), r.busy_time()}};
  };
  const auto run = scenario(true);
  const auto singles = scenario(false);
  EXPECT_EQ(run.first, singles.first);
  EXPECT_EQ(run.second, singles.second);
  EXPECT_EQ(run.second.first, 6u);
  EXPECT_EQ(run.second.second, 7 + 4 * 10 + 3);
  // At 27 the second job completes and fires its step before the first
  // step's 'x'; the probe, scheduled first of all, fires before both.
  const Trace at27(std::find(run.first.begin(), run.first.end(), std::pair<SimTime, char>{27, 'p'}),
                   run.first.end());
  ASSERT_GE(at27.size(), 3u);
  EXPECT_EQ(Trace(at27.begin(), at27.begin() + 3), (Trace{{27, 'p'}, {27, 'k'}, {27, 'x'}}));
}

TEST(ResourceRun, CountsJobsNotEntries) {
  Scheduler s;
  Resource r(s, "nic");
  r.submit(5, [] {});
  r.submit_run(10, 3, [] {});
  r.submit(5, [] {});
  // One single in service; three run jobs and one single wait.
  EXPECT_EQ(r.queue_length(), 4u);
  s.run_until(5);
  // The run's first job is in service: two of its jobs and the single wait.
  EXPECT_EQ(r.queue_length(), 3u);
  EXPECT_EQ(r.jobs_completed(), 1u);
  s.run_until(25);
  EXPECT_EQ(r.queue_length(), 1u);
  EXPECT_EQ(r.jobs_completed(), 3u);
  EXPECT_EQ(r.busy_time(), 25);
  s.run();
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.jobs_completed(), 5u);
  EXPECT_EQ(r.busy_time(), 40);
  EXPECT_FALSE(r.busy());
  // An idle resource starts a run at once: all but its first job wait.
  r.submit_run(1, 4, [] {});
  EXPECT_TRUE(r.busy());
  EXPECT_EQ(r.queue_length(), 3u);
  EXPECT_THROW(r.submit_run(1, 0, [] {}), l2s::Error);
  EXPECT_THROW(r.submit_run(-1, 2, [] {}), l2s::Error);
}

TEST(ResourceRun, StepThatSubmitsHereQueuesBehindTheRest) {
  Scheduler s;
  Resource r(s, "cpu");
  std::vector<std::pair<SimTime, int>> fired;
  int step = 0;
  r.submit_run(10, 3, [&] {
    const int i = ++step;
    fired.emplace_back(s.now(), i);
    if (i == 1) r.submit(1, [&] { fired.emplace_back(s.now(), 100); });
  });
  EXPECT_EQ(r.queue_length(), 2u);
  s.run();
  // Job 1's submit waits for jobs 2 and 3.
  EXPECT_EQ(fired, (std::vector<std::pair<SimTime, int>>{{10, 1}, {20, 2}, {30, 3}, {31, 100}}));
  EXPECT_EQ(r.jobs_completed(), 4u);
}

TEST(ResourceRun, OnlyTheTailRunWithTheSameTagGrows) {
  Scheduler s;
  Resource r(s, "nic");
  int a = 0;
  int b = 0;
  // In service and the tail: it grows.
  r.submit_run(10, 1, [&] { ++a; }, 1);
  EXPECT_FALSE(r.extend(2, 10));
  EXPECT_TRUE(r.extend(1, 10));
  EXPECT_EQ(r.queue_length(), 1u);
  // Queued and the tail: it grows; the one in service no longer can.
  r.submit_run(10, 1, [&] { ++b; }, 2);
  EXPECT_FALSE(r.extend(1, 10));
  EXPECT_TRUE(r.extend(2, 10));
  EXPECT_EQ(r.queue_length(), 3u);
  // A plain submit becomes the tail: nothing grows until a new run.
  r.submit(10, [] {});
  EXPECT_FALSE(r.extend(2, 10));
  EXPECT_FALSE(r.extend(1, 10));
  r.submit_run(10, 1, [&] { ++b; }, 2);
  EXPECT_TRUE(r.extend(2, 10));
  // An untagged run never grows, and kNoTag is no tag.
  r.submit_run(10, 2, [] {});
  EXPECT_THROW(static_cast<void>(r.extend(Resource::kNoTag, 10)), l2s::Error);
  EXPECT_EQ(r.queue_length(), 8u);
  s.run();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 4);
  EXPECT_EQ(r.jobs_completed(), 9u);
  EXPECT_EQ(s.now(), 90);
  // Once its last job has completed a run is gone: the tag finds nothing.
  EXPECT_FALSE(r.extend(1, 10));
  EXPECT_FALSE(r.busy());
}

// Runs that share a tag have interchangeable steps: here each pops the
// next id from one FIFO, as a receiver's delivery runs pop its inbox.
// Whichever run carrying the tag is the tail takes extend(), and the ids
// still come out in push order, each at the time a single submit of its
// own would complete.
TEST(ResourceRun, RunsSharingATagGrowOnlyAtTheTail) {
  constexpr std::uint32_t kShared = 3;
  Scheduler s;
  Resource r(s, "rx");
  std::deque<int> inbox;
  std::vector<std::pair<SimTime, int>> popped;
  const auto pop = [&] {
    popped.emplace_back(s.now(), inbox.front());
    inbox.pop_front();
  };
  const auto arrive = [&](int id) {
    inbox.push_back(id);
    if (!r.extend(kShared, 10)) r.submit_run(10, 1, pop, kShared);
  };
  arrive(1);  // starts a run, in service
  arrive(2);  // grows it
  r.submit(5, [] {});
  arrive(3);  // the plain job is the tail: a second run starts
  arrive(4);  // and grows; the first run no longer can
  EXPECT_EQ(r.queue_length(), 4u);
  EXPECT_EQ(r.peak_queue_entries(), 2u);
  s.run_until(15);  // job 1 done, job 2 (the first run's last) in service
  arrive(5);        // the second run is still the tail
  EXPECT_EQ(r.peak_queue_entries(), 2u);
  s.run();
  EXPECT_EQ(popped, (std::vector<std::pair<SimTime, int>>{
                        {10, 1}, {20, 2}, {35, 3}, {45, 4}, {55, 5}}));
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(r.jobs_completed(), 6u);
  EXPECT_EQ(r.busy_time(), 55);
}

// A run grows only by jobs of its own service time: a job of another
// length starts a run of its own behind it.
TEST(ResourceRun, ExtendRefusesAnotherServiceTime) {
  Scheduler s;
  Resource r(s, "rx");
  std::vector<std::pair<SimTime, char>> fired;
  r.submit_run(10, 1, [&] { fired.emplace_back(s.now(), 'a'); }, 7);
  EXPECT_FALSE(r.extend(7, 12));  // in service, another length
  EXPECT_TRUE(r.extend(7, 10));
  r.submit_run(12, 1, [&] { fired.emplace_back(s.now(), 'b'); }, 7);
  EXPECT_FALSE(r.extend(7, 10));  // queued tail, another length
  EXPECT_TRUE(r.extend(7, 12));
  EXPECT_EQ(r.queue_length(), 3u);
  s.run();
  EXPECT_EQ(fired, (std::vector<std::pair<SimTime, char>>{
                       {10, 'a'}, {20, 'a'}, {32, 'b'}, {44, 'b'}}));
  EXPECT_EQ(r.busy_time(), 44);
}

TEST(ResourceRun, InServiceRunGrowsFromItsOwnStep) {
  // The first step tries to grow its run by one job. In a run of two it
  // fires while job 2 is in service, and the run grows; in a run of one
  // it fires after the resource went idle, and no run is left to grow.
  for (const std::uint32_t jobs : {2u, 1u}) {
    Scheduler s;
    Resource r(s, "nic");
    std::vector<SimTime> fired;
    bool grew = false;
    r.submit_run(
        10, jobs,
        [&] {
          fired.push_back(s.now());
          if (fired.size() == 1) grew = r.extend(5, 10);
        },
        5);
    s.run();
    EXPECT_EQ(grew, jobs == 2);
    EXPECT_EQ(fired, jobs == 2 ? (std::vector<SimTime>{10, 20, 30}) : (std::vector<SimTime>{10}));
  }
}

}  // namespace
}  // namespace l2s::des
