#include <gtest/gtest.h>

#include "l2sim/common/error.hpp"
#include "l2sim/queueing/mm1.hpp"

namespace l2s::queueing {
namespace {

TEST(Mm1, StabilityBoundary) {
  EXPECT_TRUE(mm1_stable(0.0, 1.0));
  EXPECT_TRUE(mm1_stable(0.999, 1.0));
  EXPECT_FALSE(mm1_stable(1.0, 1.0));
  EXPECT_FALSE(mm1_stable(2.0, 1.0));
  EXPECT_FALSE(mm1_stable(-0.1, 1.0));
}

TEST(Mm1, ClassicTextbookValues) {
  // lambda = 2, mu = 3: rho = 2/3, L = 2, W = 1, Wq = 2/3.
  const auto m = mm1_metrics(2.0, 3.0);
  EXPECT_NEAR(m.utilization, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.mean_customers, 2.0, 1e-12);
  EXPECT_NEAR(m.mean_response, 1.0, 1e-12);
  EXPECT_NEAR(m.mean_waiting, 2.0 / 3.0, 1e-12);
}

TEST(Mm1, LittlesLawHolds) {
  for (const double lambda : {0.1, 0.5, 0.9}) {
    const auto m = mm1_metrics(lambda, 1.0);
    EXPECT_NEAR(m.mean_customers, lambda * m.mean_response, 1e-12);
  }
}

TEST(Mm1, ResponseDivergesNearSaturation) {
  const auto low = mm1_metrics(0.5, 1.0);
  const auto high = mm1_metrics(0.995, 1.0);
  EXPECT_GT(high.mean_response, 50.0 * low.mean_response);
}

TEST(Mm1, IdleQueueHasServiceOnlyResponse) {
  const auto m = mm1_metrics(0.0, 4.0);
  EXPECT_DOUBLE_EQ(m.utilization, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_customers, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_response, 0.25);
}

TEST(Mm1, RejectsInvalidInputs) {
  EXPECT_THROW((void)mm1_metrics(1.0, 0.0), Error);
  EXPECT_THROW((void)mm1_metrics(-1.0, 1.0), Error);
  EXPECT_THROW((void)mm1_metrics(1.0, 1.0), Error);
  EXPECT_THROW((void)mm1_metrics(2.0, 1.0), Error);
}

}  // namespace
}  // namespace l2s::queueing
