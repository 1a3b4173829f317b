// The l2s::overload resilience layer: non-stationary arrival shapes,
// popularity churn, adaptive admission shedders (static cap / CoDel-style
// queue delay / AIMD), the retry token bucket, request hedging, and
// brownout — plus the end-of-pass goodput-bucket flush the overload bench
// depends on. Every defended run must replay bit-identically (the chaos
// suite extends this under run_parallel), and a default OverloadConfig must
// leave every new counter at zero.
#include <gtest/gtest.h>

#include <numeric>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/metrics.hpp"
#include "l2sim/stats/availability.hpp"
#include "l2sim/telemetry/metrics.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace cached_workload(std::uint64_t requests = 8000) {
  trace::SyntheticSpec spec;
  spec.name = "overload";
  spec.files = 60;
  spec.avg_file_kb = 16.0;
  spec.avg_request_kb = 16.0;
  spec.size_sigma = 0.1;
  spec.alpha = 0.9;
  spec.requests = requests;
  spec.seed = 77;
  return trace::generate(spec);
}

SimConfig open_loop_config(int nodes, double rate) {
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 8 * kMiB;
  cfg.arrival.open_loop_rate = rate;
  cfg.admission.buffer_slots_per_node = 500;  // deep enough to queue badly
  return cfg;
}

void expect_partition(const SimResult& r, std::uint64_t requests) {
  EXPECT_EQ(r.completed + r.failed, requests);
  EXPECT_EQ(r.failed, r.failed_deadline + r.failed_retries_exhausted +
                          r.failed_rejected + r.failed_shed);
}

// --- arrival shapes (pure math) ------------------------------------------

TEST(ArrivalShape, FlashStepMultiplier) {
  ArrivalConfig a;
  a.open_loop_rate = 100.0;
  a.shape = ArrivalShape::kFlashCrowd;
  a.flash_at_seconds = 5.0;
  a.flash_factor = 3.0;
  EXPECT_DOUBLE_EQ(a.shape_multiplier(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.shape_multiplier(4.999), 1.0);
  EXPECT_DOUBLE_EQ(a.shape_multiplier(5.0), 3.0);  // step: no ramp
  EXPECT_DOUBLE_EQ(a.shape_multiplier(500.0), 3.0);  // hold defaults to forever
  EXPECT_DOUBLE_EQ(a.peak_multiplier(), 3.0);
  EXPECT_DOUBLE_EQ(a.rate_at(6.0), 300.0);
}

TEST(ArrivalShape, FlashRampAndRelease) {
  ArrivalConfig a;
  a.open_loop_rate = 100.0;
  a.shape = ArrivalShape::kFlashCrowd;
  a.flash_at_seconds = 10.0;
  a.flash_factor = 4.0;
  a.flash_ramp_seconds = 2.0;
  a.flash_hold_seconds = 5.0;
  EXPECT_DOUBLE_EQ(a.shape_multiplier(10.0), 1.0);   // ramp start
  EXPECT_DOUBLE_EQ(a.shape_multiplier(11.0), 2.5);   // halfway up
  EXPECT_DOUBLE_EQ(a.shape_multiplier(12.0), 4.0);   // peak
  EXPECT_DOUBLE_EQ(a.shape_multiplier(17.0), 4.0);   // still holding
  EXPECT_DOUBLE_EQ(a.shape_multiplier(18.0), 2.5);   // halfway down
  EXPECT_DOUBLE_EQ(a.shape_multiplier(19.0), 1.0);   // released
  EXPECT_DOUBLE_EQ(a.shape_multiplier(100.0), 1.0);
  EXPECT_DOUBLE_EQ(a.peak_multiplier(), 4.0);
}

TEST(ArrivalShape, DiurnalSinusoid) {
  ArrivalConfig a;
  a.open_loop_rate = 200.0;
  a.shape = ArrivalShape::kDiurnal;
  a.diurnal_period_seconds = 8.0;
  a.diurnal_amplitude = 0.5;
  EXPECT_DOUBLE_EQ(a.shape_multiplier(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.shape_multiplier(2.0), 1.5);  // quarter period: peak
  EXPECT_NEAR(a.shape_multiplier(4.0), 1.0, 1e-12);
  EXPECT_NEAR(a.shape_multiplier(6.0), 0.5, 1e-12);  // trough
  EXPECT_DOUBLE_EQ(a.peak_multiplier(), 1.5);
}

TEST(ArrivalShape, ValidationRejectsNonsense) {
  const auto tr = cached_workload(100);
  {
    SimConfig cfg = open_loop_config(1, 0.0);  // shaped arrivals need a rate
    cfg.arrival.shape = ArrivalShape::kFlashCrowd;
    EXPECT_THROW(run_once(tr, cfg, PolicyKind::kTraditional), Error);
  }
  {
    SimConfig cfg = open_loop_config(1, 100.0);
    cfg.arrival.shape = ArrivalShape::kDiurnal;
    cfg.arrival.diurnal_amplitude = 1.5;  // would make the rate negative
    EXPECT_THROW(run_once(tr, cfg, PolicyKind::kTraditional), Error);
  }
  {
    SimConfig cfg = open_loop_config(1, 100.0);
    cfg.overload.shedder = ShedderKind::kStaticCap;  // cap of 0 admits nothing
    EXPECT_THROW(run_once(tr, cfg, PolicyKind::kTraditional), Error);
  }
}

// --- non-stationary arrivals in the engine -------------------------------

TEST(Overload, FlashCrowdReplaysBitIdentically) {
  const auto tr = cached_workload(6000);
  SimConfig cfg = open_loop_config(2, 400.0);
  cfg.arrival.shape = ArrivalShape::kFlashCrowd;
  cfg.arrival.flash_at_seconds = 2.0;
  cfg.arrival.flash_factor = 3.0;
  cfg.arrival.flash_ramp_seconds = 0.5;
  const auto r1 = run_once(tr, cfg, PolicyKind::kL2s);
  const auto r2 = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(result_digest(r1), result_digest(r2));
  expect_partition(r1, tr.request_count());
  EXPECT_GT(r1.completed, 0u);
}

TEST(Overload, FlashCrowdRaisesOfferedLoad) {
  // Same trace, same base rate: the flash run must finish the trace in
  // less simulated time than the stationary run (more arrivals per
  // second), which is what makes it an overload generator.
  const auto tr = cached_workload(6000);
  SimConfig cfg = open_loop_config(2, 300.0);
  const auto stationary = run_once(tr, cfg, PolicyKind::kTraditional);
  cfg.arrival.shape = ArrivalShape::kFlashCrowd;
  cfg.arrival.flash_at_seconds = 0.0;
  cfg.arrival.flash_factor = 2.0;
  const auto flash = run_once(tr, cfg, PolicyKind::kTraditional);
  expect_partition(flash, tr.request_count());
  EXPECT_LT(flash.elapsed_seconds, stationary.elapsed_seconds);
}

TEST(Overload, DiurnalShapeRunsAndReplays) {
  const auto tr = cached_workload(6000);
  SimConfig cfg = open_loop_config(2, 400.0);
  cfg.arrival.shape = ArrivalShape::kDiurnal;
  cfg.arrival.diurnal_period_seconds = 3.0;
  cfg.arrival.diurnal_amplitude = 0.6;
  const auto r1 = run_once(tr, cfg, PolicyKind::kLard);
  const auto r2 = run_once(tr, cfg, PolicyKind::kLard);
  EXPECT_EQ(result_digest(r1), result_digest(r2));
  expect_partition(r1, tr.request_count());
}

TEST(Overload, PopularityChurnIsDeterministicAndMovesTheHotSet) {
  // Churn remaps file ids on a fixed rotation schedule: bit-identical
  // run-over-run, but a different cache story than the unchurned replay.
  trace::SyntheticSpec spec;
  spec.name = "churn";
  spec.files = 500;
  spec.avg_file_kb = 24.0;
  spec.requests = 12000;
  spec.avg_request_kb = 16.0;
  spec.alpha = 1.0;
  spec.seed = 9;
  const auto tr = trace::generate(spec);

  SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 2 * kMiB;  // small enough that locality matters
  const auto baseline = run_once(tr, cfg, PolicyKind::kL2s);

  cfg.arrival.churn_period_seconds = 0.5;
  cfg.arrival.churn_stride = 137;
  const auto churn1 = run_once(tr, cfg, PolicyKind::kL2s);
  const auto churn2 = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(result_digest(churn1), result_digest(churn2));
  EXPECT_NE(result_digest(churn1), result_digest(baseline));
  expect_partition(churn1, tr.request_count());
}

// --- admission shedders --------------------------------------------------

TEST(Overload, StaticCapShedsAboveTheCap) {
  const auto tr = cached_workload();
  SimConfig cfg = open_loop_config(1, 2000.0);  // ~3x one node's capacity
  cfg.overload.shedder = ShedderKind::kStaticCap;
  cfg.overload.static_cap = 20;
  const auto r = run_once(tr, cfg, PolicyKind::kTraditional);
  expect_partition(r, tr.request_count());
  EXPECT_GT(r.failed_shed, 0u);
  // The cap holds the queue short, so nothing should die any other way.
  EXPECT_EQ(r.failed_rejected, 0u);
}

TEST(Overload, QueueDelayShedderBoundsSojourn) {
  const auto tr = cached_workload();
  SimConfig cfg = open_loop_config(1, 2000.0);
  const auto undefended = run_once(tr, cfg, PolicyKind::kTraditional);

  cfg.overload.shedder = ShedderKind::kQueueDelay;
  cfg.overload.target_delay_seconds = 0.02;
  cfg.overload.delay_window_seconds = 0.05;
  const auto defended = run_once(tr, cfg, PolicyKind::kTraditional);
  expect_partition(defended, tr.request_count());
  EXPECT_GT(defended.failed_shed, 0u);
  // Shedding converts queueing into refusals: the served requests see far
  // better latency than the undefended pile-up.
  EXPECT_LT(defended.p95_response_ms, undefended.p95_response_ms);
}

TEST(Overload, AimdShedderReactsToFailures) {
  const auto tr = cached_workload();
  SimConfig cfg = open_loop_config(1, 2000.0);
  cfg.retry.deadline_seconds = 0.2;  // deep queues blow the deadline -> signal
  cfg.overload.shedder = ShedderKind::kAimd;
  cfg.overload.aimd_period_seconds = 0.05;
  cfg.overload.aimd_min_window = 4;
  const auto r = run_once(tr, cfg, PolicyKind::kTraditional);
  expect_partition(r, tr.request_count());
  EXPECT_GT(r.failed_shed, 0u);
  const auto r2 = run_once(tr, cfg, PolicyKind::kTraditional);
  EXPECT_EQ(result_digest(r), result_digest(r2));
}

// --- retry budget / hedging ----------------------------------------------

TEST(Overload, RetryBudgetCapsRetryStorms) {
  trace::SyntheticSpec spec;
  spec.name = "storm";
  spec.files = 300;
  spec.avg_file_kb = 10.0;
  spec.requests = 6000;
  spec.avg_request_kb = 8.0;
  spec.alpha = 0.9;
  spec.seed = 5;
  const auto tr = trace::generate(spec);

  SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 4 * kMiB;
  cfg.fault_plan.message_faults.push_back({.loss_prob = 0.05});
  cfg.retry.max_retries = 2;
  cfg.retry.attempt_timeout_seconds = 0.05;
  cfg.retry.deadline_seconds = 1.0;

  const auto unlimited = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_GT(unlimited.retry_attempts, 8u);  // losses do trigger retries

  cfg.overload.retry_budget_ratio = 0.0;  // nothing earned...
  cfg.overload.retry_budget_burst = 8.0;  // ...beyond the initial burst
  const auto budgeted = run_once(tr, cfg, PolicyKind::kL2s);
  expect_partition(budgeted, tr.request_count());
  EXPECT_LE(budgeted.retry_attempts + budgeted.hedge_attempts, 8u);
  EXPECT_LT(budgeted.retry_attempts, unlimited.retry_attempts);
}

TEST(Overload, HedgingLaunchesBackupsAndKeepsAccounting) {
  const auto tr = cached_workload();
  SimConfig cfg = open_loop_config(4, 1500.0);
  // Between the healthy p50 (~0.5 ms) and p95 (~2 ms): the slow tail of a
  // healthy measured pass hedges, the typical request never does.
  cfg.overload.hedge_delay_seconds = 0.002;
  cfg.overload.max_hedges = 1;
  const auto r = run_once(tr, cfg, PolicyKind::kL2s);
  expect_partition(r, tr.request_count());
  EXPECT_GT(r.hedge_attempts, 0u);
  const auto r2 = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(result_digest(r), result_digest(r2));
}

// --- brownout ------------------------------------------------------------

TEST(Overload, BrownoutEngagesUnderOverloadAndReplays) {
  const auto tr = cached_workload();
  SimConfig cfg = open_loop_config(2, 2500.0);
  cfg.overload.brownout = true;
  cfg.overload.brownout_forward_delay_seconds = 0.01;
  cfg.overload.brownout_service_delay_seconds = 0.05;
  const auto r = run_once(tr, cfg, PolicyKind::kL2s);
  expect_partition(r, tr.request_count());
  EXPECT_GT(r.brownout_transitions, 0u);
  const auto r2 = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(result_digest(r), result_digest(r2));
}

// --- defenses off == all-zero counters -----------------------------------

TEST(Overload, DefaultConfigLeavesEveryOverloadCounterZero) {
  const auto tr = cached_workload(4000);
  SimConfig cfg = open_loop_config(2, 400.0);
  ASSERT_FALSE(cfg.overload.any_on());
  const auto r = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(r.failed_shed, 0u);
  EXPECT_EQ(r.hedge_attempts, 0u);
  EXPECT_EQ(r.brownout_transitions, 0u);
  EXPECT_EQ(r.brownout_final_level, 0);
}

// --- goodput final-bucket flush (regression) -----------------------------

TEST(Overload, RatePerSecondKeepsThePopulatedFinalBucket) {
  // Regression: an event landing exactly at `end` falls into bucket
  // floor((end-start)/interval) == ceil count, one past the old result
  // size, and silently vanished from the timeline.
  telemetry::BucketSeries s;
  const SimTime second = seconds_to_simtime(1.0);
  s.begin(0, second);
  s.bump(seconds_to_simtime(0.5));
  s.bump(seconds_to_simtime(1.5));
  s.bump(seconds_to_simtime(3.0));  // exactly at end
  const auto rates = s.rate_per_second(seconds_to_simtime(3.0));
  ASSERT_EQ(rates.size(), 4u);
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  EXPECT_DOUBLE_EQ(total * 1.0, 3.0);  // every bump accounted for
  EXPECT_DOUBLE_EQ(rates[3], 1.0);
}

TEST(Overload, AvailabilityGoodputCountsTheFinalCompletion) {
  stats::AvailabilityTracker tracker;
  const SimTime second = seconds_to_simtime(1.0);
  tracker.begin(0, second, 1);
  tracker.record_completion(seconds_to_simtime(0.2));
  tracker.record_completion(seconds_to_simtime(2.0));  // exactly at end
  const auto rps = tracker.goodput_rps(seconds_to_simtime(2.0));
  ASSERT_EQ(rps.size(), 3u);
  EXPECT_DOUBLE_EQ(std::accumulate(rps.begin(), rps.end(), 0.0), 2.0);
}

}  // namespace
}  // namespace l2s::core
