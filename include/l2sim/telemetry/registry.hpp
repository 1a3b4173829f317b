// telemetry::Registry — named, labeled metrics with stable registration
// order, plus the value-type Snapshot that carries a run's telemetry out of
// the simulation (metrics, the probe's timeline, sampled spans, fault
// timeline). Snapshots merge deterministically, which is what lets
// run_parallel aggregate per-job registries in job-index order with no
// shared mutable state.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "l2sim/telemetry/metrics.hpp"
#include "l2sim/telemetry/span.hpp"

namespace l2s::telemetry {

enum class MetricKind : std::uint8_t {
  kCounter,
  kGauge,
  kHistogram,
  kBucketSeries,
};

[[nodiscard]] constexpr const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kBucketSeries: return "bucket_series";
  }
  return "?";
}

/// Value-type copy of one registered metric.
struct MetricSnapshot {
  std::string name;
  Labels labels;  ///< canonical (key-sorted)
  MetricKind kind = MetricKind::kCounter;

  std::uint64_t count = 0;  ///< counter value / histogram & gauge sample count
  double value = 0.0;       ///< gauge last value
  double min = 0.0;         ///< gauge min
  double max = 0.0;         ///< gauge max

  Histogram histogram;  ///< histogram copy (quantiles, merge)

  SimTime series_start = 0;     ///< bucket series timebase
  SimTime series_interval = 0;  ///< 0 = never begun
  std::vector<double> series_buckets;
};

/// Everything one run's telemetry produced, detached from the simulation.
struct Snapshot {
  int nodes = 0;  ///< cluster size (exporters need it for per-node tracks)
  std::vector<MetricSnapshot> metrics;  ///< registration order
  /// The timeline probe's table of each run, in merge order (empty with
  /// the probe off).
  std::vector<Timeline> timelines;
  std::vector<Span> spans;  ///< sampled spans, oldest first
  std::vector<FaultEvent> fault_events;

  std::uint64_t span_sample_every = 0;
  std::uint64_t spans_recorded = 0;     ///< sampled (incl. overwritten)
  std::uint64_t spans_overwritten = 0;  ///< lost to ring wraparound

  /// Find a metric by name and canonical labels; nullptr when absent.
  [[nodiscard]] const MetricSnapshot* find(const std::string& name,
                                           const Labels& labels = {}) const;

  /// Merge `other` into this snapshot: counters and histogram/series
  /// buckets sum, gauges keep extrema, timelines, spans and fault events
  /// append in call order. Callers merging a batch iterate it in a fixed
  /// order (run_parallel: job-index order) to stay deterministic.
  void merge(const Snapshot& other);
};

/// Canonical labels (sorted by key) — exposed for key-building tests.
[[nodiscard]] Labels canonical_labels(Labels labels);

/// "name{k=v,k2=v2}" — the unique key a (name, labels) pair registers under.
[[nodiscard]] std::string metric_key(const std::string& name, const Labels& labels);

class Registry {
 public:
  /// Each accessor returns the existing metric for (name, labels) or
  /// registers a new one. References stay valid for the Registry's
  /// lifetime (metrics live in deques). Registering the same key under two
  /// different kinds throws.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});
  BucketSeries& bucket_series(const std::string& name, const Labels& labels = {});

  [[nodiscard]] std::size_t metric_count() const { return order_.size(); }

  /// Copy every metric out, in registration order. The timeline, spans and
  /// fault events are not the registry's; SimTelemetry::snapshot() fills
  /// those in.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every value; registrations (names, labels, shapes) survive.
  void reset();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::size_t index;  ///< into the kind's deque
  };

  template <typename T>
  T& get_or_register(const std::string& name, const Labels& labels, MetricKind kind,
                     std::deque<T>& pool, T initial);

  std::map<std::string, std::size_t> by_key_;  ///< key -> order_ index
  std::vector<Entry> order_;                   ///< registration order
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::deque<BucketSeries> bucket_series_;
};

}  // namespace l2s::telemetry
