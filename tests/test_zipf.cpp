#include <gtest/gtest.h>

#include "l2sim/common/error.hpp"
#include "l2sim/zipf/harmonic.hpp"
#include "l2sim/zipf/zipf.hpp"

namespace l2s::zipf {
namespace {

TEST(Z, BoundaryValues) {
  EXPECT_DOUBLE_EQ(z(0.0, 100.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(z(-1.0, 100.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(z(100.0, 100.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(z(200.0, 100.0, 1.0), 1.0);
}

TEST(Z, MatchesHarmonicRatio) {
  const double v = z(10.0, 100.0, 0.9);
  EXPECT_NEAR(v, harmonic(10.0, 0.9) / harmonic(100.0, 0.9), 1e-12);
}

TEST(Z, MonotoneInN) {
  double prev = 0.0;
  for (double n = 1.0; n <= 1000.0; n *= 2.0) {
    const double v = z(n, 1000.0, 1.0);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(Z, DecreasingInPopulation) {
  double prev = 1.0;
  for (double f = 100.0; f <= 1e8; f *= 10.0) {
    const double v = z(50.0, f, 1.0);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Z, HigherAlphaConcentrates) {
  // With stronger skew, the same cache prefix captures more mass.
  EXPECT_GT(z(10.0, 10000.0, 1.2), z(10.0, 10000.0, 0.7));
}

TEST(InvertPopulation, RoundTripsThroughZ) {
  // For alpha > 1 the series converges and z(n, f) has a positive infimum
  // as f grows (~0.39 for n = 500, alpha = 1.08), so only targets above it
  // are reachable there.
  for (const double alpha : {0.78, 1.0, 1.08}) {
    for (const double target : {0.45, 0.6, 0.9}) {
      const double n = 500.0;
      const double f = invert_population(n, target, alpha);
      EXPECT_GE(f, n);
      EXPECT_NEAR(z(n, f, alpha), target, 1e-6)
          << "alpha=" << alpha << " target=" << target;
    }
  }
}

TEST(InvertPopulation, TargetOneReturnsN) {
  EXPECT_DOUBLE_EQ(invert_population(123.0, 1.0, 1.0), 123.0);
}

TEST(InvertPopulation, RejectsOutOfRangeTargets) {
  EXPECT_THROW((void)invert_population(10.0, 0.0, 1.0), l2s::Error);
  EXPECT_THROW((void)invert_population(10.0, -0.5, 1.0), l2s::Error);
  EXPECT_THROW((void)invert_population(10.0, 1.5, 1.0), l2s::Error);
}

TEST(InvertPopulation, UnreachableTargetThrows) {
  // For alpha > 1 the harmonic series converges: z(n, f) has a positive
  // infimum as f -> infinity, so tiny targets are unreachable.
  EXPECT_THROW((void)invert_population(1000.0, 1e-6, 1.5), l2s::Error);
}

TEST(InvertPopulation, LargePopulationsForLowTargets) {
  // Low hit-rate targets require astronomically large populations; the
  // log-space bisection must handle them without overflow.
  const double f = invert_population(1000.0, 0.05, 1.0);
  EXPECT_GT(f, 1e50);
  EXPECT_NEAR(z(1000.0, f, 1.0), 0.05, 1e-6);
}

}  // namespace
}  // namespace l2s::zipf
