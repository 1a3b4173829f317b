#include <gtest/gtest.h>

#include <cmath>

#include "l2sim/common/error.hpp"
#include "l2sim/stats/accumulator.hpp"

namespace l2s::stats {
namespace {

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator a;
  a.add(3.5);
  EXPECT_DOUBLE_EQ(a.mean(), 3.5);
  EXPECT_DOUBLE_EQ(a.min(), 3.5);
  EXPECT_DOUBLE_EQ(a.max(), 3.5);
  EXPECT_THROW((void)a.variance(), Error);  // needs n >= 2
}

TEST(Accumulator, EmptyThrows) {
  const Accumulator a;
  EXPECT_THROW((void)a.mean(), Error);
  EXPECT_THROW((void)a.min(), Error);
  EXPECT_THROW((void)a.max(), Error);
}

TEST(Accumulator, MergeEqualsSequential) {
  Accumulator all;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i) * 10.0;
    all.add(v);
    (i < 50 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmptySides) {
  Accumulator a;
  a.add(1.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  Accumulator target;
  target.merge(a);
  EXPECT_EQ(target.count(), 1u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.0);
}

TEST(Accumulator, ResetClears) {
  Accumulator a;
  a.add(5.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_THROW((void)a.mean(), Error);
}

TEST(Accumulator, NumericallyStableForLargeOffsets) {
  // Welford must not lose the small variance under a huge mean.
  Accumulator a;
  const double base = 1e12;
  for (int i = 0; i < 1000; ++i) a.add(base + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(a.variance(), 1.001, 0.01);
}

}  // namespace
}  // namespace l2s::stats
