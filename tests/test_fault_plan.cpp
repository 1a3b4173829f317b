// FaultPlan / DetectionParams / RetryConfig validation: every malformed
// schedule must be rejected before the run starts, because a fault plan
// that silently no-ops (or crashes mid-run) would invalidate a whole
// availability study.
#include <gtest/gtest.h>

#include "l2sim/common/error.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/fault/plan.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::fault {
namespace {

TEST(FaultPlan, EmptyByDefault) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.lossy());
  plan.validate(4);  // nothing to object to
}

TEST(FaultPlan, LossyOnlyWhenMessagesCanVanish) {
  FaultPlan plan;
  plan.message_faults.push_back({.extra_delay_seconds = 0.01, .duplicate_prob = 0.5});
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.lossy());  // delay and duplication never lose a message
  plan.message_faults.push_back({.loss_prob = 0.01});
  EXPECT_TRUE(plan.lossy());
}

TEST(FaultPlan, AcceptsAWellFormedSchedule) {
  FaultPlan plan;
  plan.crashes.push_back({3, 0.2});
  plan.recoveries.push_back({3, 0.6});
  plan.slowdowns.push_back({1, Resource::kDisk, 4.0, 0.1, 0.5});
  plan.message_faults.push_back({.loss_prob = 0.01, .src = -1, .dst = 2});
  plan.validate(4);
}

TEST(FaultPlan, RejectsOutOfRangeNodes) {
  FaultPlan plan;
  plan.crashes.push_back({4, 0.1});
  EXPECT_THROW(plan.validate(4), Error);

  plan = {};
  plan.slowdowns.push_back({-1, Resource::kCpu, 2.0, 0.0});
  EXPECT_THROW(plan.validate(4), Error);

  plan = {};
  plan.message_faults.push_back({.loss_prob = 0.5, .src = 7});
  EXPECT_THROW(plan.validate(4), Error);
  plan.message_faults[0] = {.loss_prob = 0.5, .src = -1, .dst = 9};
  EXPECT_THROW(plan.validate(4), Error);
}

TEST(FaultPlan, RejectsNegativeTimes) {
  FaultPlan plan;
  plan.crashes.push_back({0, -0.1});
  EXPECT_THROW(plan.validate(4), Error);

  plan = {};
  plan.message_faults.push_back({.loss_prob = 0.1, .from_seconds = -1.0});
  EXPECT_THROW(plan.validate(4), Error);
}

TEST(FaultPlan, RecoveryNeedsAnEarlierCrash) {
  FaultPlan plan;
  plan.recoveries.push_back({2, 0.5});
  EXPECT_THROW(plan.validate(4), Error);  // nothing to recover from

  plan.crashes.push_back({2, 0.8});
  EXPECT_THROW(plan.validate(4), Error);  // crash comes after the recovery

  plan.crashes[0].at_seconds = 0.2;
  plan.validate(4);  // crash at 0.2, recover at 0.5: fine
}

TEST(FaultPlan, RejectsBadFailSlowWindows) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, Resource::kDisk, 0.0, 0.1});  // factor must be > 0
  EXPECT_THROW(plan.validate(4), Error);

  plan.slowdowns[0] = {0, Resource::kDisk, 2.0, 0.5, 0.2};  // inverted window
  EXPECT_THROW(plan.validate(4), Error);
}

TEST(FaultPlan, RejectsBadMessageProbabilities) {
  FaultPlan plan;
  plan.message_faults.push_back({.loss_prob = 1.5});
  EXPECT_THROW(plan.validate(4), Error);
  plan.message_faults[0] = {.duplicate_prob = -0.1};
  EXPECT_THROW(plan.validate(4), Error);
  plan.message_faults[0] = {.loss_prob = 0.2, .from_seconds = 0.5, .until_seconds = 0.1};
  EXPECT_THROW(plan.validate(4), Error);
}

TEST(DetectionParams, OffIgnoresTheRest) {
  DetectionParams d;
  d.heartbeats = false;
  d.period_seconds = -1.0;  // nonsense, but unused while heartbeats are off
  d.validate();
}

TEST(DetectionParams, ValidatesWhenOn) {
  DetectionParams d;
  d.heartbeats = true;
  d.validate();

  d.period_seconds = 0.0;
  EXPECT_THROW(d.validate(), Error);

  d.period_seconds = 0.05;
  d.suspect_after_missed = 0;
  EXPECT_THROW(d.validate(), Error);
}

TEST(DetectionParams, SuspicionWindowIsKPeriods) {
  DetectionParams d;
  d.period_seconds = 0.02;
  d.suspect_after_missed = 3;
  EXPECT_EQ(d.suspicion_window(), seconds_to_simtime(0.06));
}

// --- SimConfig-level validation (wired through ClusterSimulation) --------

trace::Trace tiny_trace() {
  trace::SyntheticSpec spec;
  spec.name = "plan";
  spec.files = 50;
  spec.avg_file_kb = 4.0;
  spec.requests = 100;
  spec.avg_request_kb = 3.0;
  spec.seed = 7;
  return trace::generate(spec);
}

core::SimConfig base_config() {
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 2 * kMiB;
  return cfg;
}

TEST(SimConfigFaults, LossyPlanRequiresDeadlineOrAttemptTimeout) {
  const auto tr = tiny_trace();
  auto cfg = base_config();
  cfg.fault_plan.message_faults.push_back({.loss_prob = 0.01});
  // A lost hand-off would strand its admission slot forever: rejected.
  EXPECT_THROW(
      core::ClusterSimulation(cfg, tr, std::make_unique<policy::L2sPolicy>()), Error);

  auto with_timeout = cfg;
  with_timeout.retry.attempt_timeout_seconds = 0.05;
  core::ClusterSimulation ok1(with_timeout, tr, std::make_unique<policy::L2sPolicy>());

  auto with_deadline = cfg;
  with_deadline.retry.deadline_seconds = 1.0;
  core::ClusterSimulation ok2(with_deadline, tr, std::make_unique<policy::L2sPolicy>());
}

TEST(SimConfigFaults, RejectsBadRetryParams) {
  const auto tr = tiny_trace();
  auto cfg = base_config();
  cfg.retry.max_retries = -1;
  EXPECT_THROW(
      core::ClusterSimulation(cfg, tr, std::make_unique<policy::L2sPolicy>()), Error);

  cfg = base_config();
  cfg.retry.backoff_multiplier = 0.5;
  EXPECT_THROW(
      core::ClusterSimulation(cfg, tr, std::make_unique<policy::L2sPolicy>()), Error);

  cfg = base_config();
  cfg.retry.initial_backoff_seconds = -0.1;
  EXPECT_THROW(
      core::ClusterSimulation(cfg, tr, std::make_unique<policy::L2sPolicy>()), Error);

  cfg = base_config();
  cfg.goodput_interval_seconds = -1.0;
  EXPECT_THROW(
      core::ClusterSimulation(cfg, tr, std::make_unique<policy::L2sPolicy>()), Error);
}

TEST(SimConfigFaults, PlanValidatedAgainstClusterSize) {
  const auto tr = tiny_trace();
  auto cfg = base_config();
  cfg.fault_plan.crashes.push_back({cfg.nodes, 0.1});  // one past the end
  EXPECT_THROW(
      core::ClusterSimulation(cfg, tr, std::make_unique<policy::L2sPolicy>()), Error);
}

}  // namespace
}  // namespace l2s::fault
