// Flight-recorder behaviour: determinism of the decision stream (the
// tentpole contract — byte-identical run-over-run and under
// run_parallel), ring retention, warm-up tagging,
// sink-only streaming, and the per-cause overload counters the decision
// stream feeds telemetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/obs/decision.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace obs_trace() {
  trace::SyntheticSpec spec;
  spec.name = "obs";
  spec.files = 200;
  spec.avg_file_kb = 8.0;
  spec.requests = 2500;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 7;
  return trace::generate(spec);
}

/// A configuration that exercises many decision kinds: open-loop overload
/// with a static-cap shedder and brownout, a mid-run crash with retries, a
/// capped retry budget and hedging.
SimConfig busy_config() {
  SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 2 * kMiB;
  cfg.arrival.open_loop_rate = 3000.0;
  cfg.persistence.mean_requests_per_connection = 2.0;
  cfg.overload.shedder = ShedderKind::kStaticCap;
  cfg.overload.static_cap = 24;
  cfg.overload.brownout = true;
  cfg.overload.retry_budget_ratio = 0.05;
  cfg.overload.retry_budget_burst = 4.0;
  cfg.retry.max_retries = 2;
  cfg.retry.attempt_timeout_seconds = 0.05;
  cfg.fault_plan.crashes.push_back({1, 0.15});
  cfg.obs.enabled = true;
  cfg.obs.capacity = 0;  // unbounded
  return cfg;
}

const obs::DecisionTrace& decisions_of(const SimResult& r) {
  EXPECT_NE(r.decisions, nullptr);
  return *r.decisions;
}

TEST(FlightRecorder, RunOverRunByteIdentical) {
  const auto tr = obs_trace();
  const SimConfig cfg = busy_config();
  const auto a = run_once(tr, cfg, PolicyKind::kL2s);
  const auto b = run_once(tr, cfg, PolicyKind::kL2s);
  const auto& da = decisions_of(a);
  const auto& db = decisions_of(b);
  ASSERT_GT(da.recorded, 0u);
  EXPECT_EQ(da.recorded, db.recorded);
  EXPECT_EQ(da.records, db.records);  // field-by-field, every record
  EXPECT_EQ(obs::trace_digest(da), obs::trace_digest(db));
}

TEST(FlightRecorder, DecisionStreamCoversTheVocabulary) {
  const auto tr = obs_trace();
  const auto r = run_once(tr, busy_config(), PolicyKind::kL2s);
  const auto& d = decisions_of(r);
  std::uint64_t kinds_seen = 0;
  for (const auto& rec : d.records) kinds_seen |= 1ULL << static_cast<int>(rec.kind);
  const auto has = [&](obs::DecisionKind k) {
    return (kinds_seen >> static_cast<int>(k)) & 1ULL;
  };
  EXPECT_TRUE(has(obs::DecisionKind::kDispatch));
  EXPECT_TRUE(has(obs::DecisionKind::kComplete));
  EXPECT_TRUE(has(obs::DecisionKind::kShed));
  EXPECT_TRUE(has(obs::DecisionKind::kRetry));
  EXPECT_TRUE(has(obs::DecisionKind::kNodeCrash));
  // The crash makes some requests fail terminally.
  EXPECT_TRUE(has(obs::DecisionKind::kFailure));
}

TEST(FlightRecorder, RunParallelMatchesSerialStreams) {
  const auto tr = obs_trace();
  std::vector<SimConfig> cfgs = {busy_config(), busy_config()};
  cfgs[1].seed = 99;

  std::vector<SimJob> jobs;
  for (const auto& cfg : cfgs) {
    SimJob j;
    j.trace = &tr;
    j.sim = cfg;
    j.kind = PolicyKind::kLard;
    jobs.push_back(std::move(j));
  }
  const auto parallel = run_parallel(jobs);
  ASSERT_EQ(parallel.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto serial = run_once(tr, cfgs[i], PolicyKind::kLard);
    EXPECT_EQ(decisions_of(serial).records, decisions_of(parallel[i]).records)
        << "job " << i;
  }
}

TEST(FlightRecorder, BoundedRingKeepsTheNewestRecords) {
  const auto tr = obs_trace();
  SimConfig cfg = busy_config();
  const auto full = run_once(tr, cfg, PolicyKind::kL2s);
  const auto& df = decisions_of(full);
  ASSERT_GT(df.recorded, 64u);

  cfg.obs.capacity = 64;
  const auto bounded = run_once(tr, cfg, PolicyKind::kL2s);
  const auto& db = decisions_of(bounded);
  EXPECT_EQ(db.recorded, df.recorded);
  EXPECT_EQ(db.capacity, 64u);
  ASSERT_EQ(db.records.size(), 64u);
  EXPECT_EQ(db.dropped, db.recorded - 64u);
  EXPECT_EQ(db.first_index(), db.dropped);
  // The retained window is exactly the newest 64 records of the full run.
  const std::vector<obs::DecisionRecord> tail(df.records.end() - 64, df.records.end());
  EXPECT_EQ(db.records, tail);
}

TEST(FlightRecorder, WarmupFilterDropsPassZero) {
  const auto tr = obs_trace();
  SimConfig cfg = busy_config();
  const auto full = run_once(tr, cfg, PolicyKind::kL2s);
  const auto& df = decisions_of(full);
  std::vector<obs::DecisionRecord> measured;
  for (const auto& rec : df.records) {
    if (rec.pass == 1) measured.push_back(rec);
  }
  ASSERT_GT(measured.size(), 0u);
  ASSERT_LT(measured.size(), df.records.size());  // warm-up decisions exist

  cfg.obs.include_warmup = false;
  const auto filtered = run_once(tr, cfg, PolicyKind::kL2s);
  const auto& dflt = decisions_of(filtered);
  for (const auto& rec : dflt.records) EXPECT_EQ(rec.pass, 1);
  EXPECT_EQ(dflt.records, measured);
}

class Collector final : public obs::DecisionSink {
 public:
  void on_decision(std::uint64_t index, const obs::DecisionRecord& record) override {
    EXPECT_EQ(index, records.size());  // indices are contiguous from 0
    records.push_back(record);
  }
  std::vector<obs::DecisionRecord> records;
};

TEST(FlightRecorder, SinkOnlyModeStreamsWithoutRetaining) {
  const auto tr = obs_trace();
  SimConfig cfg = busy_config();
  const auto enabled = run_once(tr, cfg, PolicyKind::kL2s);

  Collector sink;
  cfg.obs.enabled = false;
  cfg.obs.sink = &sink;
  const auto streamed = run_once(tr, cfg, PolicyKind::kL2s);
  EXPECT_EQ(streamed.decisions, nullptr);  // nothing retained
  EXPECT_EQ(sink.records, decisions_of(enabled).records);
}

TEST(FlightRecorder, TelemetryCauseCountersMatchTheDecisionLog) {
  const auto tr = obs_trace();
  SimConfig cfg = busy_config();
  cfg.telemetry.enabled = true;
  const auto r = run_once(tr, cfg, PolicyKind::kL2s);
  ASSERT_NE(r.telemetry, nullptr);
  const auto& d = decisions_of(r);

  std::uint64_t shed_static = 0;
  std::uint64_t deny_retry = 0;
  std::uint64_t deny_hedge = 0;
  std::uint64_t brownout = 0;
  for (const auto& rec : d.records) {
    if (rec.pass != 1) continue;  // counters reset at the warm-up boundary
    if (rec.kind == obs::DecisionKind::kShed &&
        rec.cause == obs::DecisionCause::kShedStaticCap)
      ++shed_static;
    if (rec.kind == obs::DecisionKind::kBudgetDeny)
      (rec.cause == obs::DecisionCause::kBudgetDeniedHedge ? deny_hedge : deny_retry)++;
    if (rec.kind == obs::DecisionKind::kBrownout) ++brownout;
  }
  ASSERT_GT(shed_static, 0u);

  const auto count_of = [&](const char* name, telemetry::Labels labels) {
    const auto* m = r.telemetry->find(name, std::move(labels));
    return m == nullptr ? std::uint64_t{0} : m->count;
  };
  EXPECT_EQ(count_of("overload.shed", {{"cause", "static_cap"}}), shed_static);
  EXPECT_EQ(count_of("overload.retry_budget_denied", {{"op", "retry"}}), deny_retry);
  EXPECT_EQ(count_of("overload.retry_budget_denied", {{"op", "hedge"}}), deny_hedge);
  std::uint64_t brownout_counted = 0;
  for (const auto& m : r.telemetry->metrics) {
    if (m.name == "overload.brownout") brownout_counted += m.count;
  }
  EXPECT_EQ(brownout_counted, brownout);
  // The shed causes also reconcile with the legacy aggregate counter.
  std::uint64_t shed_total = 0;
  for (const auto& m : r.telemetry->metrics) {
    if (m.name == "overload.shed") shed_total += m.count;
  }
  EXPECT_EQ(shed_total, r.failed_shed);
}

}  // namespace
}  // namespace l2s::core
