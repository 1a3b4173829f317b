// Telemetry metric value types: counters, gauges, log-linear histograms,
// bucketed time series and the timeline probe's table. They are plain
// value classes — usable standalone (stats::AvailabilityTracker keeps its
// goodput timeline in a BucketSeries) or named and labeled inside a
// telemetry::Registry. Every type supports cheap snapshot/merge semantics
// so run_parallel can aggregate per-job registries deterministically.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
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

/// Log-linear histogram of finite values. Every power of two is split into
/// 128 equal sub-buckets, so a bucket is at most 1/128 of its lower bound
/// wide. Buckets start at 2^-20 (about a nanosecond, in milliseconds;
/// smaller values, zero included, share the first bucket) and the bucket
/// array grows to the largest value seen. Count, min and max are exact.
///
/// quantile(q) is the value of nearest rank r = ceil(q * n): rank 1 is the
/// minimum and rank n the maximum, both exact. Any other rank is placed
/// among its bucket's values as if they were spread evenly across the
/// bucket, then clamped to [min, max], so it lies within 1% of the exact
/// order statistic.
class Histogram {
 public:
  void add(double value);
  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] double quantile(double q) const;
  /// Bucket-wise sum: the merge answers exactly what one histogram fed
  /// both inputs would.
  void merge(const Histogram& other);
  void reset();

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
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

/// The timeline probe's samples, one row per load-sampler tick: a time
/// column, a via.in_flight column and one 32-byte entry per node, so a
/// tick costs 16 + 32·N bytes for N nodes. One table holds one run; runs
/// of different cluster sizes cannot share one, so a Snapshot keeps a list.
class Timeline {
 public:
  /// One node at one tick.
  struct Node {
    std::uint32_t open_connections = 0;
    std::uint32_t cpu_queue = 0;
    std::uint32_t disk_queue = 0;
    std::uint32_t nic_tx_queue = 0;
    Bytes cache_used = 0;
    double cpu_utilization = 0.0;  ///< busy share of the window since the last tick

    bool operator==(const Node&) const = default;
  };

  explicit Timeline(int nodes);

  /// Append tick `t` and return its nodes() entries, zeroed, to fill in.
  [[nodiscard]] std::span<Node> append(SimTime t, std::uint64_t via_in_flight);

  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] std::size_t ticks() const { return times_.size(); }
  [[nodiscard]] SimTime time(std::size_t tick) const { return times_[tick]; }
  [[nodiscard]] std::uint64_t via_in_flight(std::size_t tick) const {
    return via_in_flight_[tick];
  }
  [[nodiscard]] const Node& node(std::size_t tick, int n) const {
    return rows_[tick * static_cast<std::size_t>(nodes_) + static_cast<std::size_t>(n)];
  }

  /// Heap bytes the table holds: its columns' capacity.
  [[nodiscard]] std::size_t bytes() const;

  bool operator==(const Timeline&) const = default;

 private:
  int nodes_ = 0;
  std::vector<SimTime> times_;
  std::vector<std::uint64_t> via_in_flight_;
  std::vector<Node> rows_;  ///< tick-major: (tick, n) at tick * nodes_ + n
};

static_assert(sizeof(Timeline::Node) == 32);

}  // namespace l2s::telemetry
