#include <gtest/gtest.h>

#include "l2sim/cluster/load_tracker.hpp"

namespace l2s::cluster {
namespace {

TEST(LoadView, SetGetAdjust) {
  LoadView v(4);
  EXPECT_EQ(v.get(0), 0);
  v.set(1, 5);
  v.adjust(1, 3);
  v.adjust(1, -2);
  EXPECT_EQ(v.get(1), 6);
  EXPECT_EQ(v.nodes(), 4);
}

TEST(LoadView, LeastLoadedWithTies) {
  LoadView v(4);
  v.set(0, 3);
  v.set(1, 1);
  v.set(2, 1);
  v.set(3, 2);
  EXPECT_EQ(v.least_loaded(), 1);  // lowest id wins ties
}

TEST(LoadView, LeastAndMostOfCandidates) {
  LoadView v(5);
  v.set(0, 9);
  v.set(1, 4);
  v.set(2, 7);
  v.set(3, 4);
  v.set(4, 1);
  const std::vector<int> cands = {0, 2, 3};
  EXPECT_EQ(v.least_loaded_of(cands), 3);
  EXPECT_EQ(v.most_loaded_of(cands), 0);
}

TEST(LoadView, AnyBelow) {
  LoadView v(3);
  v.set(0, 10);
  v.set(1, 10);
  v.set(2, 10);
  EXPECT_FALSE(v.any_below(10));
  EXPECT_TRUE(v.any_below(11));
}

TEST(LoadView, BoundsChecked) {
  LoadView v(2);
  EXPECT_THROW((void)v.get(2), l2s::Error);
  EXPECT_THROW(v.set(-1, 0), l2s::Error);
  EXPECT_THROW((void)v.least_loaded_of({}), l2s::Error);
}

TEST(BroadcastThrottle, FiresOnDelta) {
  BroadcastThrottle t(4);
  EXPECT_FALSE(t.should_broadcast(0));   // no drift from initial 0
  EXPECT_FALSE(t.should_broadcast(3));
  EXPECT_TRUE(t.should_broadcast(4));    // drift 4 -> broadcast, remember 4
  EXPECT_FALSE(t.should_broadcast(7));
  EXPECT_TRUE(t.should_broadcast(8));
  EXPECT_EQ(t.last_broadcast(), 8);
}

TEST(BroadcastThrottle, FiresOnDecreaseToo) {
  BroadcastThrottle t(4);
  EXPECT_TRUE(t.should_broadcast(10));
  EXPECT_FALSE(t.should_broadcast(7));
  EXPECT_TRUE(t.should_broadcast(6));
  EXPECT_EQ(t.last_broadcast(), 6);
}

TEST(BroadcastThrottle, RejectsNonPositiveDelta) {
  EXPECT_THROW(BroadcastThrottle(0), l2s::Error);
}

}  // namespace
}  // namespace l2s::cluster
