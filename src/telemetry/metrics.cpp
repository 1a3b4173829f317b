#include "l2sim/telemetry/metrics.hpp"

#include <algorithm>
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

Histogram::Histogram(HistogramParams params) : params_(params) {
  if (params_.buckets < 2) throw std::invalid_argument("Histogram: need >= 2 buckets");
  if (params_.base <= 0.0 || params_.growth <= 1.0) {
    throw std::invalid_argument("Histogram: base must be > 0 and growth > 1");
  }
  inv_log_growth_ = 1.0 / std::log(params_.growth);
  counts_.assign(params_.buckets, 0);
}

void Histogram::add(double value) {
  // Bucket 0 is [0, base); bucket k >= 1 is [base*g^(k-1), base*g^k); the
  // last bucket absorbs overflow. add() sits on the per-completion hot path
  // (telemetry_bench gates it), so the bucket index is one log, not a
  // multiply ladder over the bucket array.
  std::size_t i = 0;
  if (value >= params_.base) {
    const double x = std::log(value / params_.base) * inv_log_growth_;
    if (x >= static_cast<double>(counts_.size() - 2)) {
      i = counts_.size() - 1;
    } else {
      i = static_cast<std::size_t>(x) + 1;
    }
  }
  ++counts_[i];
  ++total_;
}

double Histogram::bucket_lower_bound(std::size_t i) const {
  if (i == 0) return 0.0;
  double bound = params_.base;
  for (std::size_t k = 1; k < i; ++k) bound *= params_.growth;
  return bound;
}

double bucket_quantile(const HistogramParams& params,
                       const std::vector<std::uint64_t>& buckets, std::uint64_t total,
                       double q) {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  // Lower bounds by the same repeated multiplication as bucket_lower_bound,
  // so every quantile is bit-identical to that bound. The last bucket
  // (overflow) holds whatever rank is left.
  std::uint64_t seen = 0;
  double lower = 0.0;
  double next = params.base;
  for (std::size_t i = 0; i + 1 < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > target) return lower;
    lower = next;
    next *= params.growth;
  }
  return lower;
}

double Histogram::quantile(double q) const {
  return bucket_quantile(params_, counts_, total_, q);
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.params_.base != params_.base ||
      other.params_.growth != params_.growth) {
    throw std::invalid_argument("Histogram::merge: parameter mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

void Histogram::reset() {
  counts_.assign(counts_.size(), 0);
  total_ = 0;
}

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

void SampleSeries::add(SimTime t, double value) { points_.emplace_back(t, value); }

void SampleSeries::merge(const SampleSeries& other) {
  points_.insert(points_.end(), other.points_.begin(), other.points_.end());
}

}  // namespace l2s::telemetry
