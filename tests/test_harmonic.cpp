#include <gtest/gtest.h>

#include <cmath>

#include "l2sim/common/error.hpp"
#include "l2sim/zipf/harmonic.hpp"

namespace l2s::zipf {
namespace {

TEST(Harmonic, ExactSmallValues) {
  EXPECT_DOUBLE_EQ(harmonic_exact(0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic_exact(1, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(harmonic_exact(2, 1.0), 1.5);
  EXPECT_NEAR(harmonic_exact(4, 1.0), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
}

TEST(Harmonic, ExactMatchesKnownAlpha2) {
  // sum 1/i^2 for i=1..10 = 1.549767731...
  EXPECT_NEAR(harmonic_exact(10, 2.0), 1.5497677311665407, 1e-12);
}

TEST(Harmonic, ContinuousAgreesWithExactBelowPrefix) {
  for (const double alpha : {0.5, 0.78, 1.0, 1.08, 1.5}) {
    for (const std::uint64_t n : {1ull, 10ull, 1000ull, 50000ull}) {
      EXPECT_NEAR(harmonic(static_cast<double>(n), alpha), harmonic_exact(n, alpha),
                  1e-9 * harmonic_exact(n, alpha))
          << "alpha=" << alpha << " n=" << n;
    }
  }
}

TEST(Harmonic, TailIntegralAccurate) {
  // Compare the midpoint-tail path against brute-force summation just past
  // the internal exact prefix (100000).
  const double alpha = 0.9;
  const std::uint64_t n = 150000;
  EXPECT_NEAR(harmonic(static_cast<double>(n), alpha), harmonic_exact(n, alpha),
              1e-7 * harmonic_exact(n, alpha));
}

TEST(Harmonic, MonotoneInX) {
  const double alpha = 1.0;
  double prev = 0.0;
  for (double x = 0.5; x < 2e6; x *= 3.7) {
    const double h = harmonic(x, alpha);
    EXPECT_GT(h, prev);
    prev = h;
  }
}

TEST(Harmonic, FractionalInterpolation) {
  const double alpha = 1.0;
  const double h2 = harmonic(2.0, alpha);
  const double h25 = harmonic(2.5, alpha);
  const double h3 = harmonic(3.0, alpha);
  EXPECT_GT(h25, h2);
  EXPECT_LT(h25, h3);
  EXPECT_NEAR(h25, h2 + 0.5 * std::pow(3.0, -alpha), 1e-12);
}

TEST(Harmonic, LogGrowthForAlphaOne) {
  // H_n ~ ln n + gamma for alpha = 1.
  const double gamma = 0.5772156649015329;
  const double n = 1e9;
  EXPECT_NEAR(harmonic(n, 1.0), std::log(n) + gamma, 1e-3);
}

TEST(Harmonic, PowerGrowthForAlphaBelowOne) {
  // H_n ~ n^(1-a)/(1-a) for alpha < 1 (leading term).
  const double a = 0.5;
  const double n = 1e12;
  const double expected = std::pow(n, 1.0 - a) / (1.0 - a);
  EXPECT_NEAR(harmonic(n, a) / expected, 1.0, 1e-4);
}

TEST(Harmonic, ConvergesForAlphaAboveOne) {
  // zeta(2) = pi^2/6.
  EXPECT_NEAR(harmonic(1e12, 2.0), M_PI * M_PI / 6.0, 1e-6);
}

TEST(Harmonic, ZeroAndNegativeXAreZero) {
  EXPECT_DOUBLE_EQ(harmonic(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(-5.0, 1.0), 0.0);
}

TEST(Harmonic, RejectsNonPositiveAlpha) {
  EXPECT_THROW((void)harmonic(10.0, 0.0), l2s::Error);
  EXPECT_THROW((void)harmonic_exact(10, -1.0), l2s::Error);
}

}  // namespace
}  // namespace l2s::zipf
