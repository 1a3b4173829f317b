// Telemetry metric value types: counters, gauges, log-scale histograms and
// two time-series shapes (bucketed counters and point samples). They are
// plain value classes — usable standalone (stats::AvailabilityTracker keeps
// its goodput timeline in a BucketSeries) or named and labeled inside a
// telemetry::Registry. Every type supports cheap snapshot/merge semantics
// so run_parallel can aggregate per-job registries deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "l2sim/common/units.hpp"

namespace l2s::telemetry {

/// Metric labels: key/value pairs, canonicalized (sorted by key) at
/// registration so {a=1,b=2} and {b=2,a=1} name the same metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value plus the observed extrema. Merging keeps the
/// combined extrema and the maximum of the last values (the natural
/// aggregate for peak-style gauges, which is what the simulator records).
class Gauge {
 public:
  void set(double v);
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  void merge(const Gauge& other);
  void reset();

 private:
  double value_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Geometric bucket boundaries [0, base), [base, base*growth), ...; the
/// final bucket is an overflow catch-all (same shape as stats::LogHistogram
/// but mergeable bucket-by-bucket).
struct HistogramParams {
  double base = 0.01;
  double growth = 1.3;
  std::size_t buckets = 64;
};

/// The q-quantile of `total` values counted in `buckets` shaped by
/// `params`: the lower bound of the bucket holding the value of rank
/// floor(q * (total - 1)). Histogram::quantile and the exporters (which
/// hold a snapshot's bucket copy) both call this one walk.
[[nodiscard]] double bucket_quantile(const HistogramParams& params,
                                     const std::vector<std::uint64_t>& buckets,
                                     std::uint64_t total, double q);

class Histogram {
 public:
  explicit Histogram(HistogramParams params = {});

  void add(double value);
  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] const HistogramParams& params() const { return params_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return counts_; }
  [[nodiscard]] double bucket_lower_bound(std::size_t i) const;
  [[nodiscard]] double quantile(double q) const;
  /// Bucket-wise sum; both histograms must share the same parameters.
  void merge(const Histogram& other);
  void reset();

 private:
  HistogramParams params_;
  double inv_log_growth_ = 1.0;        // 1 / log(growth), for O(1) bucket lookup
  std::vector<std::uint64_t> counts_;  // last bucket = overflow
  std::uint64_t total_ = 0;
};

/// Fixed-interval bucketed accumulator over simulated time: bump(t) adds
/// into the bucket covering t. This is the goodput-timeline shape; bucket
/// indexing is exact integer SimTime arithmetic so migrated callers keep
/// bit-identical timelines. Un-begun (interval 0) series ignore bumps.
class BucketSeries {
 public:
  void begin(SimTime start, SimTime interval);
  void bump(SimTime t, double delta = 1.0);

  [[nodiscard]] SimTime start() const { return start_; }
  [[nodiscard]] SimTime interval() const { return interval_; }
  [[nodiscard]] const std::vector<double>& buckets() const { return buckets_; }

  /// Per-second rates per bucket covering [start, end); empty when the
  /// series was never begun or end precedes start.
  [[nodiscard]] std::vector<double> rate_per_second(SimTime end) const;

  /// Element-wise sum (pads with zeros); keeps this series' timebase.
  void merge(const BucketSeries& other);
  void reset();

 private:
  SimTime start_ = 0;
  SimTime interval_ = 0;
  std::vector<double> buckets_;
};

/// Point samples (t, value): the timeline-probe shape (queue depths, cache
/// occupancy, utilization). Merging appends the other series' points.
class SampleSeries {
 public:
  void add(SimTime t, double value);
  [[nodiscard]] const std::vector<std::pair<SimTime, double>>& points() const {
    return points_;
  }
  void merge(const SampleSeries& other);
  void reset() { points_.clear(); }

 private:
  std::vector<std::pair<SimTime, double>> points_;
};

}  // namespace l2s::telemetry
