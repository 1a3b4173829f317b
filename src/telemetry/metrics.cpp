#include "l2sim/telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace l2s::telemetry {

void Gauge::set(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  value_ = v;
  ++count_;
}

void Gauge::merge(const Gauge& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  value_ = std::max(value_, other.value_);
  count_ += other.count_;
}

void Gauge::reset() {
  value_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  count_ = 0;
}

namespace {

// Above its sign bit a positive double holds an 11-bit exponent and then
// its mantissa, so its bits shifted right by 52 - 7 read
// exponent * 128 + (the mantissa's leading 7 bits): one key per log-linear
// bucket, consecutive keys for consecutive buckets.
constexpr int kKeyShift = 52 - 7;
constexpr double kFloor = 0x1p-20;
constexpr std::uint64_t kFloorKey = std::bit_cast<std::uint64_t>(kFloor) >> kKeyShift;

[[nodiscard]] std::size_t bucket_of(double value) {
  if (value < kFloor) return 0;
  return static_cast<std::size_t>((std::bit_cast<std::uint64_t>(value) >> kKeyShift) -
                                  kFloorKey);
}

/// Lower bound of bucket i; bucket i spans [lower_bound(i), lower_bound(i + 1)).
[[nodiscard]] double lower_bound(std::size_t i) {
  return std::bit_cast<double>((kFloorKey + i) << kKeyShift);
}

}  // namespace

void Histogram::add(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("Histogram: non-finite value");
  const std::size_t i = bucket_of(value);
  if (i >= counts_.size()) counts_.resize(i + 1, 0);
  ++counts_[i];
  ++total_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double n = static_cast<double>(total_);
  const auto rank = static_cast<std::uint64_t>(std::clamp(std::ceil(q * n), 1.0, n));
  if (rank == 1) return min_;
  if (rank == total_) return max_;
  std::size_t i = 0;
  std::uint64_t below = 0;
  while (below + counts_[i] < rank) below += counts_[i++];
  const double lo = lower_bound(i);
  const double hi = lower_bound(i + 1);
  const double place =
      (static_cast<double>(rank - below) - 0.5) / static_cast<double>(counts_[i]);
  return std::clamp(lo + (hi - lo) * place, min_, max_);
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() > counts_.size()) counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::reset() { *this = Histogram{}; }

void BucketSeries::begin(SimTime start, SimTime interval) {
  start_ = start;
  interval_ = interval;
  buckets_.clear();
}

void BucketSeries::bump(SimTime t, double delta) {
  // Same integer arithmetic stats::AvailabilityTracker has always used, so
  // the migrated goodput timeline stays bit-identical.
  if (interval_ <= 0 || t < start_) return;
  const auto idx = static_cast<std::size_t>((t - start_) / interval_);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
  buckets_[idx] += delta;
}

std::vector<double> BucketSeries::rate_per_second(SimTime end) const {
  std::vector<double> rates;
  if (interval_ <= 0 || end <= start_) return rates;
  // Cover [start, end) — and never drop a populated bucket: an event at
  // exactly `end` (a completion stamped at the final event time the caller
  // passes as `end`) lands in bucket floor((end-start)/interval), one past
  // the ceil() count, and used to vanish from the timeline.
  const auto n = static_cast<std::size_t>((end - start_ + interval_ - 1) / interval_);
  rates.resize(std::max(n, buckets_.size()), 0.0);
  const double seconds = simtime_to_seconds(interval_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    rates[i] = buckets_[i] / seconds;
  }
  return rates;
}

void BucketSeries::merge(const BucketSeries& other) {
  if (interval_ <= 0) {
    *this = other;
    return;
  }
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0.0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

void BucketSeries::reset() { buckets_.clear(); }

Timeline::Timeline(int nodes) : nodes_(nodes) {
  if (nodes < 0) throw std::invalid_argument("Timeline: negative node count");
}

std::span<Timeline::Node> Timeline::append(SimTime t, std::uint64_t via_in_flight) {
  times_.push_back(t);
  via_in_flight_.push_back(via_in_flight);
  const std::size_t first = rows_.size();
  rows_.resize(first + static_cast<std::size_t>(nodes_));
  return {rows_.data() + first, static_cast<std::size_t>(nodes_)};
}

std::size_t Timeline::bytes() const {
  return times_.capacity() * sizeof(SimTime) +
         via_in_flight_.capacity() * sizeof(std::uint64_t) + rows_.capacity() * sizeof(Node);
}

}  // namespace l2s::telemetry
