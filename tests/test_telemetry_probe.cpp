// TimelineProbe and the engine bridge: the probe's table riding the load
// sampler, registry counters agreeing with SimResult, and the null-object
// guarantee when telemetry is disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/telemetry/probe.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/telemetry/sim_telemetry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::telemetry {
namespace {

TEST(TimelineProbe, RecordsPerNodeSeriesAndDifferentiatesUtilization) {
  Registry reg;
  TimelineProbe probe(reg, 2);
  std::vector<TimelineProbe::Reading> nodes(2);
  nodes[0].open_connections = 3;
  nodes[0].cpu_queue = 5;
  nodes[0].cpu_busy = seconds_to_simtime(0.5);  // 50% busy over 1 s
  nodes[1].cache_used = 1024;

  probe.record(seconds_to_simtime(0.5), 7, nodes);  // before begin(): warm-up
  EXPECT_EQ(probe.timeline().ticks(), 0u);

  probe.begin(0);
  probe.record(seconds_to_simtime(1.0), 2, nodes);
  nodes[0].cpu_busy = seconds_to_simtime(1.5);  // fully busy window
  nodes[0].cpu_queue = 1;
  probe.record(seconds_to_simtime(2.0), 2, nodes);

  const Timeline& tl = probe.timeline();
  ASSERT_EQ(tl.nodes(), 2);
  ASSERT_EQ(tl.ticks(), 2u);
  EXPECT_EQ(tl.time(1), seconds_to_simtime(2.0));
  EXPECT_NEAR(tl.node(0, 0).cpu_utilization, 0.5, 1e-12);
  EXPECT_NEAR(tl.node(1, 0).cpu_utilization, 1.0, 1e-12);  // differentiated, not cumulative
  EXPECT_EQ(tl.node(0, 0).open_connections, 3u);
  EXPECT_EQ(tl.node(0, 0).cpu_queue, 5u);
  EXPECT_EQ(tl.node(1, 0).cpu_queue, 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("node.peak_cpu_queue", {{"node", "0"}}).max(), 5.0);
  EXPECT_EQ(tl.node(0, 1).cache_used, 1024u);
  EXPECT_EQ(tl.via_in_flight(0), 2u);
}

TEST(TimelineProbe, CountsMustFitThirtyTwoBits) {
  Registry reg;
  TimelineProbe probe(reg, 1);
  probe.begin(0);
  std::vector<TimelineProbe::Reading> nodes(1);
  nodes[0].disk_queue = std::size_t{1} << 32;
  EXPECT_THROW(probe.record(1, 0, nodes), Error);
  nodes[0].disk_queue = 0;
  nodes[0].open_connections = -1;
  EXPECT_THROW(probe.record(1, 0, nodes), Error);
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

  // One table, one entry per node per tick.
  ASSERT_EQ(r.telemetry->timelines.size(), 1u);
  const Timeline& tl = r.telemetry->timelines.front();
  EXPECT_EQ(tl.nodes(), 4);
  EXPECT_GT(tl.ticks(), 0u);
  // Utilization samples are fractions of the sampling window. The resource
  // counts the elapsed part of the job in service, so a service spanning a
  // window boundary splits across the windows it spans and no window reads
  // more than 1.
  for (std::size_t k = 0; k < tl.ticks(); ++k) {
    EXPECT_GE(tl.node(k, 0).cpu_utilization, 0.0);
    EXPECT_LE(tl.node(k, 0).cpu_utilization, 1.0);
  }
}

// The table holds one row per tick of the measured pass and none of the
// warm-up's: the ticks are consecutive sampler intervals from the start of
// the measured pass. It grows by doubling, so it holds at most twice its
// 16 + 32·N bytes per tick, and snapshot() moves it out of the probe.
TEST(TelemetryProbe, TimelineHoldsOneRowPerMeasuredTick) {
  const auto tr = workload();
  for (const int nodes : {4, 32}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    core::SimConfig cfg;
    cfg.nodes = nodes;
    cfg.node.cache_bytes = 4 * kMiB;
    cfg.telemetry.enabled = true;
    ASSERT_TRUE(cfg.warmup);
    core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
    const auto r = sim.run();
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_EQ(r.telemetry->timelines.size(), 1u);
    const Timeline& tl = r.telemetry->timelines.front();
    ASSERT_GT(tl.ticks(), 1u);

    const SimTime interval = cfg.load_sample_interval;
    const SimTime end = sim.scheduler().now();
    const SimTime measure_start = end - seconds_to_simtime(r.elapsed_seconds);
    EXPECT_EQ(tl.time(0), measure_start + interval);
    for (std::size_t k = 1; k < tl.ticks(); ++k) {
      EXPECT_EQ(tl.time(k) - tl.time(k - 1), interval) << "tick " << k;
    }
    EXPECT_LE(tl.time(tl.ticks() - 1) + interval, end);

    const std::size_t per_tick = 16 + 32 * static_cast<std::size_t>(nodes);
    EXPECT_GE(tl.bytes(), tl.ticks() * per_tick);
    EXPECT_LE(tl.bytes(), 2 * tl.ticks() * per_tick);

    ASSERT_NE(sim.telemetry(), nullptr);
    ASSERT_NE(sim.telemetry()->probe(), nullptr);
    EXPECT_EQ(sim.telemetry()->probe()->timeline().ticks(), 0u);
    EXPECT_EQ(sim.telemetry()->probe()->timeline().bytes(), 0u);
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
  EXPECT_TRUE(r.telemetry->timelines.empty());
  EXPECT_EQ(r.telemetry->find("node.peak_cpu_queue", {{"node", "0"}}), nullptr);
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
