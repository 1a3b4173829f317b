// Property tests of telemetry::Histogram, the one histogram every reported
// response-time quantile comes from: on each distribution below, every
// quantile is within 1% of the exact nearest-rank order statistic, the
// extreme quantiles are the exact minimum and maximum, and a merge answers
// exactly what one histogram fed both inputs answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "l2sim/common/rng.hpp"
#include "l2sim/telemetry/metrics.hpp"

namespace l2s::telemetry {
namespace {

constexpr double kQuantiles[] = {0.0, 0.01, 0.5, 0.95, 0.99, 1.0};

/// The value of nearest rank ceil(q * n) among `values`.
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::clamp(std::ceil(q * n), 1.0, n));
  return values[rank - 1];
}

Histogram fed(const std::vector<double>& values) {
  Histogram h;
  for (const double v : values) h.add(v);
  return h;
}

void expect_close_to_exact(const std::vector<double>& values, const std::string& what) {
  const Histogram h = fed(values);
  ASSERT_EQ(h.count(), values.size()) << what;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  EXPECT_EQ(h.quantile(0.0), *lo) << what;
  EXPECT_EQ(h.quantile(1.0), *hi) << what;
  for (const double q : kQuantiles) {
    const double exact = exact_quantile(values, q);
    EXPECT_NEAR(h.quantile(q), exact, 0.01 * exact) << what << " q=" << q;
  }
}

TEST(HistogramQuantiles, OneValue) { expect_close_to_exact({42.5}, "one value"); }

TEST(HistogramQuantiles, AllEqualValuesAreExact) {
  const std::vector<double> values(1000, 3.7);
  expect_close_to_exact(values, "all equal");
  for (const double q : kQuantiles) EXPECT_EQ(fed(values).quantile(q), 3.7) << q;
}

TEST(HistogramQuantiles, UniformWithinOnePercent) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(0.01 + rng.next_double() * (1000.0 - 0.01));
  expect_close_to_exact(values, "uniform [0.01, 1000]");
}

TEST(HistogramQuantiles, LogNormalWithinOnePercent) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.next_lognormal(1.0, 1.5));
  expect_close_to_exact(values, "log-normal");
}

TEST(HistogramQuantiles, BimodalMixWithinOnePercent) {
  // 90% fast hits around 1.5 ms, 10% slow misses around 600 ms: the tail
  // quantiles sit in the slow mode, where 30%-wide buckets used to read low.
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng.next_double() < 0.9 ? 1.0 + rng.next_double()
                                             : 500.0 + 200.0 * rng.next_double());
  }
  expect_close_to_exact(values, "90/10 bimodal");
}

TEST(HistogramQuantiles, PowersOfTwoAndTheirNeighbours) {
  std::vector<double> values;
  for (int e = -10; e <= 12; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, 2.0 * p));
  }
  expect_close_to_exact(values, "powers of two");
}

TEST(HistogramQuantiles, MergeAnswersLikeOneHistogram) {
  Rng rng(17);
  std::vector<double> first;
  std::vector<double> second;
  for (int i = 0; i < 5000; ++i) first.push_back(rng.next_lognormal(0.0, 1.0));
  for (int i = 0; i < 3000; ++i) second.push_back(50.0 + rng.next_lognormal(2.0, 0.5));
  std::vector<double> both = first;
  both.insert(both.end(), second.begin(), second.end());

  Histogram merged = fed(first);
  merged.merge(fed(second));
  Histogram reversed = fed(second);
  reversed.merge(fed(first));
  const Histogram whole = fed(both);
  ASSERT_EQ(merged.count(), both.size());
  for (const double q : kQuantiles) {
    EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << q;
    EXPECT_EQ(reversed.quantile(q), whole.quantile(q)) << q;
  }
  expect_close_to_exact(both, "merged halves");

  Histogram empty;
  merged.merge(empty);
  EXPECT_EQ(merged.quantile(0.5), whole.quantile(0.5));
  empty.merge(whole);
  EXPECT_EQ(empty.quantile(0.99), whole.quantile(0.99));
}

TEST(HistogramQuantiles, EmptyResetAndInvalidInput) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.add(0.0);  // below the first bucket's bound, still counted exactly
  h.add(5.0);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(1.0), 0.0);
  EXPECT_THROW(h.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(h.add(std::numeric_limits<double>::infinity()), std::invalid_argument);
}

}  // namespace
}  // namespace l2s::telemetry
