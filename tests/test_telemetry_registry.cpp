// telemetry::Registry and the metric value types: registration and label
// canonicalization, snapshotting, and the deterministic merge semantics
// run_parallel leans on.
#include <gtest/gtest.h>

#include <stdexcept>

#include "l2sim/telemetry/registry.hpp"

namespace l2s::telemetry {
namespace {

TEST(TelemetryMetrics, CounterAddsAndMerges) {
  Counter a;
  a.add();
  a.add(4);
  EXPECT_EQ(a.value(), 5u);
  Counter b;
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.value(), 12u);
  a.reset();
  EXPECT_EQ(a.value(), 0u);
}

TEST(TelemetryMetrics, GaugeTracksExtrema) {
  Gauge g;
  EXPECT_EQ(g.count(), 0u);
  g.set(3.0);
  g.set(-1.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.min(), -1.0);
  EXPECT_DOUBLE_EQ(g.max(), 3.0);
  EXPECT_EQ(g.count(), 3u);

  Gauge h;
  h.set(10.0);
  g.merge(h);
  EXPECT_DOUBLE_EQ(g.min(), -1.0);
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);  // merged gauges keep the peak last-value
  EXPECT_EQ(g.count(), 4u);

  // Merging an empty gauge changes nothing; merging into an empty adopts.
  Gauge empty;
  g.merge(empty);
  EXPECT_EQ(g.count(), 4u);
  Gauge fresh;
  fresh.merge(g);
  EXPECT_DOUBLE_EQ(fresh.min(), -1.0);
  EXPECT_EQ(fresh.count(), 4u);
}

TEST(TelemetryMetrics, HistogramBucketsAndQuantiles) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.add(0.5);
  h.add(1000.0);
  EXPECT_EQ(h.count(), 101u);
  // Interpolated inside 0.5's bucket, which is 1/128 of 0.5 wide.
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.5 / 128);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);     // the exact minimum
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);  // the exact maximum

  Histogram g;
  g.add(0.5);
  h.merge(g);
  EXPECT_EQ(h.count(), 102u);
  EXPECT_NEAR(h.quantile(0.99), 0.5, 0.5 / 128);  // rank 101 of 102: the last 0.5
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(TelemetryMetrics, BucketSeriesUsesExactIntegerBuckets) {
  BucketSeries s;
  s.bump(100);  // un-begun series ignore bumps
  EXPECT_TRUE(s.buckets().empty());

  const SimTime start = 1000;
  const SimTime interval = 250;
  s.begin(start, interval);
  s.bump(999);   // before start: dropped
  s.bump(1000);  // bucket 0
  s.bump(1249);  // bucket 0 (integer division, not rounding)
  s.bump(1250);  // bucket 1
  s.bump(2000);  // bucket 4
  ASSERT_EQ(s.buckets().size(), 5u);
  EXPECT_DOUBLE_EQ(s.buckets()[0], 2.0);
  EXPECT_DOUBLE_EQ(s.buckets()[1], 1.0);
  EXPECT_DOUBLE_EQ(s.buckets()[4], 1.0);

  // rate_per_second covers [start, end) with ceil division, zero-padded.
  const auto rps = s.rate_per_second(2600);
  ASSERT_EQ(rps.size(), 7u);
  EXPECT_DOUBLE_EQ(rps[0], 2.0 / simtime_to_seconds(interval));
  EXPECT_DOUBLE_EQ(rps[5], 0.0);
  EXPECT_TRUE(s.rate_per_second(start).empty());
}

TEST(TelemetryMetrics, TimelineAppendsOneEntryPerNodePerTick) {
  Timeline tl(3);
  EXPECT_EQ(tl.ticks(), 0u);
  EXPECT_EQ(tl.bytes(), 0u);
  for (SimTime t = 10; t <= 30; t += 10) {
    const auto row = tl.append(t, static_cast<std::uint64_t>(t) / 10);
    ASSERT_EQ(row.size(), 3u);
    for (std::size_t n = 0; n < row.size(); ++n) {
      EXPECT_EQ(row[n], Timeline::Node{});  // zeroed
      row[n].cpu_queue = static_cast<std::uint32_t>(t + static_cast<SimTime>(n));
    }
  }
  ASSERT_EQ(tl.ticks(), 3u);
  EXPECT_EQ(tl.time(2), 30);
  EXPECT_EQ(tl.via_in_flight(1), 2u);
  EXPECT_EQ(tl.node(1, 2).cpu_queue, 22u);
  EXPECT_GE(tl.bytes(), 3 * (16 + 32 * 3u));
  EXPECT_THROW(Timeline(-1), std::invalid_argument);
}

TEST(TelemetryRegistry, LabelsAreCanonicalized) {
  Registry reg;
  Counter& a = reg.counter("reqs", {{"b", "2"}, {"a", "1"}});
  Counter& b = reg.counter("reqs", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.metric_count(), 1u);
  EXPECT_EQ(metric_key("reqs", canonical_labels({{"b", "2"}, {"a", "1"}})),
            "reqs{a=1,b=2}");
  EXPECT_EQ(metric_key("reqs", {}), "reqs");
}

TEST(TelemetryRegistry, SameKeyDifferentKindThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
  // Same name under different labels is a different metric: fine.
  EXPECT_NO_THROW(reg.gauge("x", {{"node", "0"}}));
}

TEST(TelemetryRegistry, ReferencesStableAcrossRegistrations) {
  Registry reg;
  Counter& first = reg.counter("c0");
  for (int i = 1; i < 200; ++i) reg.counter(std::string("c").append(std::to_string(i)));
  first.add(3);
  EXPECT_EQ(reg.counter("c0").value(), 3u);
}

TEST(TelemetryRegistry, SnapshotPreservesRegistrationOrder) {
  Registry reg;
  reg.counter("one").add(1);
  reg.gauge("two").set(2.0);
  reg.histogram("three").add(3.0);
  reg.bucket_series("four").begin(0, 10);
  reg.bucket_series("four").bump(25);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 4u);
  EXPECT_EQ(snap.metrics[0].name, "one");
  EXPECT_EQ(snap.metrics[3].name, "four");
  EXPECT_EQ(snap.metrics[0].count, 1u);
  EXPECT_DOUBLE_EQ(snap.metrics[1].value, 2.0);
  EXPECT_EQ(snap.metrics[2].count, 1u);
  EXPECT_EQ(snap.metrics[3].series_buckets.size(), 3u);
  EXPECT_TRUE(snap.timelines.empty());  // the probe's table is not the registry's

  ASSERT_NE(snap.find("two"), nullptr);
  EXPECT_EQ(snap.find("two")->kind, MetricKind::kGauge);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(TelemetryRegistry, ResetKeepsRegistrations) {
  Registry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(1.0);
  reg.reset();
  EXPECT_EQ(reg.metric_count(), 2u);
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.gauge("g").count(), 0u);
}

TEST(TelemetrySnapshot, MergeCombinesEveryKind) {
  Registry a;
  a.counter("c").add(2);
  a.gauge("g").set(5.0);
  a.histogram("h").add(0.5);
  a.bucket_series("b").begin(0, 100);
  a.bucket_series("b").bump(50);

  Registry b;
  b.counter("c").add(3);
  b.counter("extra").add(1);
  b.gauge("g").set(-2.0);
  b.histogram("h").add(8.0);
  b.bucket_series("b").begin(0, 100);
  b.bucket_series("b").bump(250);  // bucket 2: longer than a's series

  Snapshot sa = a.snapshot();
  sa.nodes = 2;
  sa.timelines.emplace_back(2);
  (void)sa.timelines.back().append(1, 1);
  Snapshot sb = b.snapshot();
  sb.nodes = 3;
  sb.timelines.emplace_back(3);
  (void)sb.timelines.back().append(2, 2);

  Snapshot merged = sa;
  merged.merge(sb);

  EXPECT_EQ(merged.find("c")->count, 5u);
  ASSERT_NE(merged.find("extra"), nullptr);  // unknown metrics are adopted
  EXPECT_EQ(merged.find("extra")->count, 1u);
  EXPECT_DOUBLE_EQ(merged.find("g")->min, -2.0);
  EXPECT_DOUBLE_EQ(merged.find("g")->max, 5.0);
  EXPECT_EQ(merged.find("h")->count, 2u);
  EXPECT_EQ(merged.find("h")->histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(merged.find("h")->histogram.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(merged.find("h")->histogram.quantile(1.0), 8.0);
  ASSERT_EQ(merged.find("b")->series_buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(merged.find("b")->series_buckets[0], 1.0);
  EXPECT_DOUBLE_EQ(merged.find("b")->series_buckets[2], 1.0);
  // Timelines append as a list: runs of different sizes keep their tables.
  EXPECT_EQ(merged.nodes, 3);
  ASSERT_EQ(merged.timelines.size(), 2u);
  EXPECT_EQ(merged.timelines[0], sa.timelines[0]);
  EXPECT_EQ(merged.timelines[1], sb.timelines[0]);
}

TEST(TelemetrySnapshot, MergeKindMismatchThrows) {
  Registry a;
  a.counter("x");
  Registry b;
  b.gauge("x");
  Snapshot sa = a.snapshot();
  EXPECT_THROW(sa.merge(b.snapshot()), std::invalid_argument);
}

TEST(TelemetrySnapshot, MergeIsOrderDependentOnlyForAppends) {
  // Scalar aggregates are order-independent; span and timeline appends are
  // why run_parallel merges in job-index order. Verify the scalar half.
  Registry a;
  a.counter("c").add(2);
  Registry b;
  b.counter("c").add(3);
  Snapshot ab = a.snapshot();
  ab.merge(b.snapshot());
  Snapshot ba = b.snapshot();
  ba.merge(a.snapshot());
  EXPECT_EQ(ab.find("c")->count, ba.find("c")->count);
}

}  // namespace
}  // namespace l2s::telemetry
