// The deterministic chaos harness (ctest -L chaos): non-stationary
// arrivals (flash crowd, diurnal swing, popularity churn) composed with a
// fault::FaultPlan (crash, lossy links, heartbeat detection) and the full
// overload defense stack — replayed bit-identically run-over-run and
// under core::run_parallel. A chaos experiment that
// cannot be replayed cannot be debugged; these suites pin that every
// scenario here is a pure function of (trace, config, seed).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace chaos_trace() {
  trace::SyntheticSpec spec;
  spec.name = "chaos";
  spec.files = 250;
  spec.avg_file_kb = 8.0;
  // Long enough that the arrival phase outlasts the collapse transient:
  // at 3x the nominal 1600/s the flash holds for over a second of
  // arrivals, so defenses have load left to shed when the signal latches.
  spec.requests = 9000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 1337;
  return trace::generate(spec);
}

struct Scenario {
  std::string name;
  SimConfig cfg;
  PolicyKind kind;
};

/// Flash crowd at 3x landing right as a node crashes, over lossy links —
/// the metastable-failure recipe — in an undefended and a fully defended
/// variant, plus a diurnal + churn scenario for shape coverage.
std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  SimConfig base;
  base.nodes = 4;
  base.node.cache_bytes = 2 * kMiB;
  // Nominal 1600/s runs the warm 4-node cluster around one third
  // utilization; a 3x flash (4800/s) exceeds the ~3900/s capacity of the
  // 3 survivors after the crash, so the trigger overloads the cluster
  // without the defense-free baseline being doomed at nominal load.
  base.arrival.open_loop_rate = 1600.0;
  // Deep admission buffers: the failure mode under the flash is queueing
  // delay (the metastable ingredient), not window rejection.
  base.admission.buffer_slots_per_node = 256;
  base.retry.max_retries = 2;
  base.retry.attempt_timeout_seconds = 0.1;
  base.retry.deadline_seconds = 0.5;
  base.fault_plan.crashes.push_back({1, 0.15});
  base.fault_plan.message_faults.push_back(
      {.loss_prob = 0.01, .extra_delay_seconds = 0.0002, .duplicate_prob = 0.02});
  base.detection.heartbeats = true;
  base.detection.period_seconds = 0.02;
  base.detection.readmit_after_fresh = 3;
  base.goodput_interval_seconds = 0.1;

  {
    Scenario s;
    s.name = "flash-crash-undefended";
    s.cfg = base;
    s.cfg.arrival.shape = ArrivalShape::kFlashCrowd;
    s.cfg.arrival.flash_at_seconds = 0.15;
    s.cfg.arrival.flash_factor = 3.0;
    s.cfg.arrival.flash_ramp_seconds = 0.05;
    s.kind = PolicyKind::kL2s;
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "flash-crash-defended";
    s.cfg = base;
    s.cfg.arrival.shape = ArrivalShape::kFlashCrowd;
    s.cfg.arrival.flash_at_seconds = 0.15;
    s.cfg.arrival.flash_factor = 3.0;
    s.cfg.arrival.flash_ramp_seconds = 0.05;
    // AIMD admission window: failures shrink the in-flight cap, bounding
    // the standing queue (and therefore sojourn) directly — the defense
    // that keeps attempts under the 0.1 s timeout so retries never storm.
    s.cfg.overload.shedder = ShedderKind::kAimd;
    s.cfg.overload.aimd_increase = 16.0;
    s.cfg.overload.delay_window_seconds = 0.05;
    s.cfg.overload.retry_budget_ratio = 0.1;
    s.cfg.overload.retry_budget_burst = 16.0;
    s.cfg.overload.brownout = true;
    s.cfg.overload.brownout_forward_delay_seconds = 0.08;
    s.cfg.overload.brownout_service_delay_seconds = 0.2;
    s.kind = PolicyKind::kL2s;
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "diurnal-churn-hedged";
    s.cfg = base;
    s.cfg.arrival.shape = ArrivalShape::kDiurnal;
    s.cfg.arrival.diurnal_period_seconds = 0.5;
    s.cfg.arrival.diurnal_amplitude = 0.6;
    s.cfg.arrival.churn_period_seconds = 0.2;
    s.cfg.arrival.churn_stride = 41;
    s.cfg.overload.hedge_delay_seconds = 0.05;
    s.cfg.overload.retry_budget_ratio = 0.2;
    s.kind = PolicyKind::kLard;
    out.push_back(std::move(s));
  }
  return out;
}

void expect_partition(const SimResult& r, std::uint64_t requests) {
  EXPECT_EQ(r.completed + r.failed, requests);
  EXPECT_EQ(r.failed, r.failed_deadline + r.failed_retries_exhausted +
                          r.failed_rejected + r.failed_shed);
}

TEST(Chaos, ScenariosReplayBitIdentically) {
  const auto tr = chaos_trace();
  for (const auto& s : scenarios()) {
    const auto r1 = run_once(tr, s.cfg, s.kind);
    const auto r2 = run_once(tr, s.cfg, s.kind);
    EXPECT_EQ(result_digest_hex(r1), result_digest_hex(r2)) << s.name;
    expect_partition(r1, tr.request_count());
  }
}

TEST(Chaos, RunParallelMatchesSerialOnEveryScenario) {
  const auto tr = chaos_trace();
  const auto ss = scenarios();
  std::vector<SimJob> jobs;
  for (const auto& s : ss) {
    SimJob j;
    j.trace = &tr;
    j.sim = s.cfg;
    j.kind = s.kind;
    jobs.push_back(std::move(j));
  }
  const auto parallel = run_parallel(jobs);
  ASSERT_EQ(parallel.size(), ss.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    const auto serial = run_once(tr, ss[i].cfg, ss[i].kind);
    EXPECT_EQ(result_digest_hex(serial), result_digest_hex(parallel[i]))
        << ss[i].name;
  }
}

TEST(Chaos, DefensesActuallyEngage) {
  // The defended scenario is not a placebo: the shedder refuses work and
  // the undefended twin does not shed at all (it fails the hard way).
  const auto tr = chaos_trace();
  const auto ss = scenarios();
  ASSERT_EQ(ss[0].name, "flash-crash-undefended");
  ASSERT_EQ(ss[1].name, "flash-crash-defended");
  const auto undefended = run_once(tr, ss[0].cfg, ss[0].kind);
  const auto defended = run_once(tr, ss[1].cfg, ss[1].kind);
  EXPECT_EQ(undefended.failed_shed, 0u);
  EXPECT_GT(defended.failed_shed, 0u);
  expect_partition(defended, tr.request_count());
  // The metastable story in one assertion pair: the undefended twin
  // collapses (most requests die in the retry storm), while shedding the
  // excess lets the defended cluster complete the large majority.
  const double n = static_cast<double>(tr.request_count());
  EXPECT_LT(static_cast<double>(undefended.completed), 0.40 * n);
  EXPECT_GT(static_cast<double>(defended.completed), 0.70 * n);
}

TEST(Chaos, ChaosSeedSelectsTheReplay) {
  // The seed is the replay handle: same seed, same universe; different
  // seed, different loss/gap draws (self-consistent either way).
  const auto tr = chaos_trace();
  auto cfg = scenarios()[1].cfg;
  const auto a1 = run_once(tr, cfg, PolicyKind::kL2s);
  const auto a2 = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(result_digest_hex(a1), result_digest_hex(a2));
  cfg.seed = 0xD15EA5E;
  const auto b1 = run_once(tr, cfg, PolicyKind::kL2s);
  const auto b2 = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(result_digest_hex(b1), result_digest_hex(b2));
  EXPECT_NE(result_digest_hex(a1), result_digest_hex(b1));
}

}  // namespace
}  // namespace l2s::core
