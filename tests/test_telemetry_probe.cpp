// TimelineProbe and the engine bridge: probe series riding the load
// sampler, registry counters agreeing with SimResult, and the null-object
// guarantee when telemetry is disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/telemetry/probe.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::telemetry {
namespace {

TEST(TimelineProbe, RecordsPerNodeSeriesAndDifferentiatesUtilization) {
  Registry reg;
  TimelineProbe probe(reg, 2);
  probe.begin(0);

  ClusterSample first;
  first.now = seconds_to_simtime(1.0);
  first.nodes.resize(2);
  first.nodes[0].open_connections = 3;
  first.nodes[0].cpu_queue = 5;
  first.nodes[0].cpu_busy = seconds_to_simtime(0.5);  // 50% busy over 1 s
  first.nodes[1].cache_used = 1024;
  first.via_in_flight = 2;
  probe.record(first);

  ClusterSample second = first;
  second.now = seconds_to_simtime(2.0);
  second.nodes[0].cpu_busy = seconds_to_simtime(1.5);  // fully busy window
  second.nodes[0].cpu_queue = 1;
  probe.record(second);

  const auto& util = reg.sample_series("node.cpu_utilization", {{"node", "0"}}).points();
  ASSERT_EQ(util.size(), 2u);
  EXPECT_NEAR(util[0].second, 0.5, 1e-12);
  EXPECT_NEAR(util[1].second, 1.0, 1e-12);  // differentiated, not cumulative

  EXPECT_EQ(reg.sample_series("node.cpu_queue", {{"node", "0"}}).points().size(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("node.peak_cpu_queue", {{"node", "0"}}).max(), 5.0);
  EXPECT_DOUBLE_EQ(
      reg.sample_series("node.cache_used_bytes", {{"node", "1"}}).points()[0].second,
      1024.0);
  EXPECT_DOUBLE_EQ(reg.sample_series("via.in_flight").points()[0].second, 2.0);
}

// --- end-to-end -----------------------------------------------------------

trace::Trace workload() {
  trace::SyntheticSpec spec;
  spec.name = "probe";
  spec.files = 300;
  spec.avg_file_kb = 8.0;
  spec.requests = 6000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 91;
  return trace::generate(spec);
}

TEST(TelemetryProbe, DisabledTelemetryIsNullObject) {
  const auto tr = workload();
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 4 * kMiB;
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  EXPECT_EQ(sim.telemetry(), nullptr);
  const auto r = sim.run();
  EXPECT_EQ(r.telemetry, nullptr);
}

TEST(TelemetryProbe, RegistryCountersMatchSimResult) {
  const auto tr = workload();
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 4 * kMiB;
  cfg.telemetry.enabled = true;
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  ASSERT_NE(r.telemetry, nullptr);
  const Snapshot& snap = *r.telemetry;
  EXPECT_EQ(snap.nodes, 4);
  EXPECT_EQ(snap.find("requests.completed")->count, r.completed);
  EXPECT_EQ(snap.find("cluster.forwards")->count, r.forwarded);
  EXPECT_EQ(snap.find("requests.failed", {{"reason", "deadline"}})->count,
            r.failed_deadline);
  EXPECT_EQ(snap.find("requests.failed", {{"reason", "retries"}})->count,
            r.failed_retries_exhausted);
  EXPECT_EQ(snap.find("requests.failed", {{"reason", "rejected"}})->count,
            r.failed_rejected);
  EXPECT_EQ(snap.find("requests.response_ms")->count, r.completed);
}

// SimResult's quantiles and the snapshot's requests.response_ms read the
// collector's one histogram. With every span kept, the completed spans give
// the exact response times to check it against.
TEST(TelemetryProbe, ResponseQuantilesMatchExactOrderStatistics) {
  const auto tr = workload();
  for (const auto kind : {core::PolicyKind::kTraditional, core::PolicyKind::kLard}) {
    core::SimConfig cfg;
    cfg.nodes = 4;
    cfg.node.cache_bytes = 1 * kMiB;
    cfg.telemetry.enabled = true;
    cfg.telemetry.span_sample_every = 1;
    cfg.telemetry.span_capacity = 1 << 14;
    const auto r = core::run_once(tr, cfg, kind);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_EQ(r.telemetry->spans_overwritten, 0u);

    std::vector<double> response_ms;
    for (const Span& s : r.telemetry->spans) {
      if (!s.failed())
        response_ms.push_back(simtime_to_seconds(s.completion - s.first_arrival) * 1e3);
    }
    ASSERT_EQ(response_ms.size(), r.completed);
    std::sort(response_ms.begin(), response_ms.end());
    const auto exact = [&](double q) {
      const double n = static_cast<double>(response_ms.size());
      return response_ms[static_cast<std::size_t>(std::clamp(std::ceil(q * n), 1.0, n)) - 1];
    };
    const std::string policy = core::policy_kind_name(kind);
    EXPECT_NEAR(r.p50_response_ms, exact(0.50), 0.01 * exact(0.50)) << policy;
    EXPECT_NEAR(r.p95_response_ms, exact(0.95), 0.01 * exact(0.95)) << policy;
    EXPECT_NEAR(r.p99_response_ms, exact(0.99), 0.01 * exact(0.99)) << policy;

    const Histogram& h = r.telemetry->find("requests.response_ms")->histogram;
    EXPECT_EQ(h.quantile(0.50), r.p50_response_ms) << policy;
    EXPECT_EQ(h.quantile(0.95), r.p95_response_ms) << policy;
    EXPECT_EQ(h.quantile(0.99), r.p99_response_ms) << policy;
  }
}

TEST(TelemetryProbe, ProbeSeriesRideTheLoadSampler) {
  const auto tr = workload();
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 4 * kMiB;
  cfg.telemetry.enabled = true;
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  ASSERT_NE(r.telemetry, nullptr);

  const auto* cpu_q = r.telemetry->find("node.cpu_queue", {{"node", "0"}});
  ASSERT_NE(cpu_q, nullptr);
  EXPECT_GT(cpu_q->samples.size(), 0u);
  // One sample per node per tick: every node's series has the same length.
  for (int n = 1; n < 4; ++n) {
    const auto* other =
        r.telemetry->find("node.cpu_queue", {{"node", std::to_string(n)}});
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->samples.size(), cpu_q->samples.size());
  }
  // Utilization samples are fractions of the sampling window. The resource
  // counts the elapsed part of the job in service, so a service spanning a
  // window boundary splits across the windows it spans and no window reads
  // more than 1.
  const auto* util = r.telemetry->find("node.cpu_utilization", {{"node", "0"}});
  ASSERT_NE(util, nullptr);
  for (const auto& [t, v] : util->samples) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(TelemetryProbe, ProbeOffKeepsMetricsWithoutSeries) {
  const auto tr = workload();
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 4 * kMiB;
  cfg.telemetry.enabled = true;
  cfg.telemetry.probe = false;
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  ASSERT_NE(r.telemetry, nullptr);
  EXPECT_EQ(r.telemetry->find("node.cpu_queue", {{"node", "0"}}), nullptr);
  EXPECT_EQ(r.telemetry->find("requests.completed")->count, r.completed);
}

TEST(TelemetryProbe, GoodputSeriesMatchesSimResultTimeline) {
  const auto tr = workload();
  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 4 * kMiB;
  cfg.telemetry.enabled = true;
  cfg.goodput_interval_seconds = 0.2;
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  ASSERT_NE(r.telemetry, nullptr);

  // The telemetry goodput series and the AvailabilityTracker timeline in
  // SimResult::goodput_rps are fed by the same events through the same
  // BucketSeries arithmetic: bucket-for-bucket identical rates.
  const auto* series = r.telemetry->find("goodput.completed");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(r.goodput_rps.empty());
  const double per_bucket_s = simtime_to_seconds(series->series_interval);
  ASSERT_GT(per_bucket_s, 0.0);
  ASSERT_LE(series->series_buckets.size(), r.goodput_rps.size());
  for (std::size_t i = 0; i < series->series_buckets.size(); ++i) {
    EXPECT_DOUBLE_EQ(series->series_buckets[i] / per_bucket_s, r.goodput_rps[i]);
  }
  // Trailing goodput buckets (after the last completion) are zero.
  for (std::size_t i = series->series_buckets.size(); i < r.goodput_rps.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.goodput_rps[i], 0.0);
  }
}

}  // namespace
}  // namespace l2s::telemetry
