#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "l2sim/policy/l2s.hpp"
#include "policy_fixture.hpp"

namespace l2s::policy {
namespace {

using testing::PolicyFixture;

TEST(L2sPolicy, RoundRobinDnsFrontDoor) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  for (std::uint64_t seq = 0; seq < 8; ++seq)
    EXPECT_EQ(p.entry_node(seq, PolicyFixture::request_for(0)), static_cast<int>(seq % 4));
}

TEST(L2sPolicy, FirstRequestServedAtEntry) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  EXPECT_EQ(p.select_service_node(2, PolicyFixture::request_for(5)), 2);
  EXPECT_EQ(p.server_set_of(2, 5), std::vector<int>{2});
}

TEST(L2sPolicy, FirstRequestAtOverloadedEntryGoesElsewhere) {
  PolicyFixture f(4);
  L2sPolicy p;  // T = 20
  p.attach(f.ctx);
  f.set_load(1, 25);
  const int chosen = p.select_service_node(1, PolicyFixture::request_for(5));
  EXPECT_NE(chosen, 1);
  EXPECT_TRUE(std::find(p.server_set_of(1, 5).begin(), p.server_set_of(1, 5).end(),
                        chosen) != p.server_set_of(1, 5).end());
}

TEST(L2sPolicy, SetChangesBroadcastToAllNodes) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  EXPECT_TRUE(p.server_set_of(2, 5) == std::vector<int>{2});
  // Other nodes have not heard yet.
  EXPECT_TRUE(p.server_set_of(0, 5).empty());
  f.drain();  // deliver the locality broadcast
  for (int n = 0; n < 4; ++n) EXPECT_EQ(p.server_set_of(n, 5), std::vector<int>{2});
}

TEST(L2sPolicy, ForwardsToCachingNode) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  // A later request entering at node 0 is forwarded to the caching node.
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(5)), 2);
}

TEST(L2sPolicy, ServesLocallyWhenEntryCaches) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  f.set_load(2, 10);  // loaded but under T and within local bias of itself
  EXPECT_EQ(p.select_service_node(2, PolicyFixture::request_for(5)), 2);
}

TEST(L2sPolicy, GrowsSetWhenCachingNodeOverloaded) {
  PolicyFixture f(4);
  L2sPolicy p;  // T = 20
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  f.set_load(2, 30);           // caching node overloaded
  p.on_complete(2, PolicyFixture::request_for(5));  // trigger load broadcast
  f.drain();
  // Entry 0 is idle: it should take the file itself (replication).
  const int chosen = p.select_service_node(0, PolicyFixture::request_for(5));
  EXPECT_EQ(chosen, 0);
  EXPECT_GE(p.counters().set_grow, 1u);
  f.drain();
  EXPECT_TRUE(p.server_set_of(3, 5) == p.server_set_of(0, 5));
}

TEST(L2sPolicy, NoGrowthWhenWholeClusterSaturated) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  // Everyone overloaded: spare capacity nowhere, so the request stays with
  // the caching node (replication would only thrash).
  for (int n = 0; n < 4; ++n) {
    f.set_load(n, 25);
    p.on_complete(n, PolicyFixture::request_for(5));
  }
  f.drain();
  const auto grows_before = p.counters().set_grow;
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(5)), 2);
  EXPECT_EQ(p.counters().set_grow, grows_before);
}

TEST(L2sPolicy, ExtremeOverloadForcesGrowth) {
  PolicyFixture f(4);
  L2sPolicy p;  // 2T = 40
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  for (int n = 0; n < 4; ++n) f.set_load(n, 25);
  f.set_load(2, 45);  // the caching node is beyond 2T
  for (int n = 0; n < 4; ++n) p.on_complete(n, PolicyFixture::request_for(5));
  f.drain();
  const int chosen = p.select_service_node(0, PolicyFixture::request_for(5));
  EXPECT_NE(chosen, 2);
  EXPECT_GE(p.counters().set_grow, 1u);
}

TEST(L2sPolicy, LoadBroadcastsThrottledByDelta) {
  PolicyFixture f(3);
  L2sPolicy p;  // delta = 4
  p.attach(f.ctx);
  f.set_load(1, 3);
  p.on_complete(1, PolicyFixture::request_for(0));
  f.drain();
  EXPECT_EQ(p.view_of(0, 1), 0);  // drift 3 < 4: no broadcast
  f.set_load(1, 4);
  p.on_service_start(1, PolicyFixture::request_for(0));
  f.drain();
  EXPECT_EQ(p.view_of(0, 1), 4);  // drift 4: broadcast
  EXPECT_EQ(p.view_of(2, 1), 4);
  EXPECT_GE(p.counters().load_broadcasts, 1u);
}

TEST(L2sPolicy, ShrinkPrunesStableReplicatedSets) {
  L2sParams params;
  params.set_shrink_seconds = 0.001;
  PolicyFixture f(4);
  L2sPolicy p(params);
  p.attach(f.ctx);
  // Build a 2-member set for file 5.
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  f.set_load(2, 30);
  p.on_complete(2, PolicyFixture::request_for(5));
  f.drain();
  (void)p.select_service_node(0, PolicyFixture::request_for(5));
  f.drain();
  ASSERT_EQ(p.server_set_of(0, 5).size(), 2u);
  // Let the shrink window elapse, with every node underloaded (< t).
  f.set_load(2, 0);
  p.on_complete(2, PolicyFixture::request_for(5));
  f.sched.run_until(f.sched.now() + seconds_to_simtime(0.01));
  (void)p.select_service_node(0, PolicyFixture::request_for(5));
  EXPECT_EQ(p.server_set_of(0, 5).size(), 1u);
  EXPECT_GE(p.counters().set_shrink, 1u);
}

TEST(L2sPolicy, ResetCountersZeroesEveryField) {
  PolicyFixture f(4);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(2, PolicyFixture::request_for(5));
  f.drain();
  f.set_load(2, 30);
  p.on_complete(2, PolicyFixture::request_for(5));
  f.drain();
  (void)p.select_service_node(0, PolicyFixture::request_for(5));
  f.drain();
  EXPECT_EQ(p.counters().set_create, 1u);
  EXPECT_GE(p.counters().set_grow, 1u);
  EXPECT_GE(p.counters().load_broadcasts, 1u);
  EXPECT_GE(p.counters().locality_broadcasts, 1u);
  p.reset_counters();
  for (const auto field :
       {&PolicyCounters::load_broadcasts, &PolicyCounters::locality_broadcasts,
        &PolicyCounters::set_create, &PolicyCounters::set_grow, &PolicyCounters::set_shrink,
        &PolicyCounters::load_updates, &PolicyCounters::dispatcher_queries,
        &PolicyCounters::front_end_failover}) {
    EXPECT_EQ(p.counters().*field, 0u);
  }
}

TEST(L2sPolicy, ForwardCostIsMuF) {
  PolicyFixture f(2);
  L2sPolicy p;
  p.attach(f.ctx);
  EXPECT_EQ(p.forward_cpu_time(0), seconds_to_simtime(1.0 / 10000.0));
}

TEST(L2sPolicy, RejectsBadParams) {
  L2sParams bad;
  bad.overload_threshold = 5;
  bad.underload_threshold = 10;
  EXPECT_THROW(L2sPolicy{bad}, l2s::Error);
  bad = L2sParams{};
  bad.broadcast_delta = 0;
  EXPECT_THROW(L2sPolicy{bad}, l2s::Error);
  // The set-decay window must convert to a SimTime.
  for (const double shrink : {std::nan(""), std::numeric_limits<double>::infinity(), -1.0}) {
    bad = L2sParams{};
    bad.set_shrink_seconds = shrink;
    EXPECT_THROW(L2sPolicy{bad}, l2s::Error) << shrink;
  }
}

TEST(L2sPolicy, OptimisticViewBumpOnForward) {
  PolicyFixture f(3);
  L2sPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(1, PolicyFixture::request_for(9));
  f.drain();
  EXPECT_EQ(p.view_of(0, 1), 0);
  (void)p.select_service_node(0, PolicyFixture::request_for(9));  // forwards to 1
  EXPECT_EQ(p.view_of(0, 1), 1);  // node 0 counts its own hand-off
  EXPECT_EQ(p.view_of(2, 1), 0);  // node 2 knows nothing
}

}  // namespace
}  // namespace l2s::policy
