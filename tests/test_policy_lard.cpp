#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/lard_dispatcher.hpp"
#include "policy_fixture.hpp"

namespace l2s::policy {
namespace {

using testing::PolicyFixture;

TEST(LardPolicy, AllRequestsEnterAtFrontEnd) {
  PolicyFixture f(4);
  LardPolicy p;
  p.attach(f.ctx);
  for (std::uint64_t seq = 0; seq < 10; ++seq)
    EXPECT_EQ(p.entry_node(seq, PolicyFixture::request_for(static_cast<storage::FileId>(seq % 3))), 0);
}

TEST(LardPolicy, FirstRequestGoesToLeastLoadedBackend) {
  PolicyFixture f(4);
  LardPolicy p;
  p.attach(f.ctx);
  // Views start at zero; least-loaded backend is node 1 (ties by id,
  // node 0 excluded as front-end).
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(7)), 1);
  // A request for a different file now prefers node 2 (node 1's view was
  // bumped by the assignment).
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(8)), 2);
}

TEST(LardPolicy, StickyAssignmentForSameFile) {
  PolicyFixture f(4);
  LardPolicy p;
  p.attach(f.ctx);
  const int first = p.select_service_node(0, PolicyFixture::request_for(7));
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(7)), first);
}

TEST(LardPolicy, FrontEndViewTracksAssignments) {
  PolicyFixture f(3);
  LardPolicy p;
  p.attach(f.ctx);
  const int b = p.select_service_node(0, PolicyFixture::request_for(1));
  EXPECT_EQ(p.front_end_view(b), 1);
  (void)p.select_service_node(0, PolicyFixture::request_for(1));
  EXPECT_EQ(p.front_end_view(b), 2);
}

TEST(LardPolicy, CompletionUpdatesArriveInBatches) {
  PolicyFixture f(3);
  LardPolicy p;  // update_batch = 4
  p.attach(f.ctx);
  int backend = -1;
  for (int i = 0; i < 4; ++i) backend = p.select_service_node(0, PolicyFixture::request_for(1));
  EXPECT_EQ(p.front_end_view(backend), 4);
  // Three completions: no update message yet.
  for (int i = 0; i < 3; ++i) p.on_complete(backend, PolicyFixture::request_for(1));
  f.drain();
  EXPECT_EQ(p.front_end_view(backend), 4);
  // Fourth completion triggers one message carrying -4.
  p.on_complete(backend, PolicyFixture::request_for(1));
  f.drain();
  EXPECT_EQ(p.front_end_view(backend), 0);
  EXPECT_EQ(f.via.messages_sent(), 1u);
}

TEST(LardPolicy, ReplicatesUnderImbalance) {
  LardParams params;
  params.t_low = 2;
  params.t_high = 5;
  PolicyFixture f(4);
  LardPolicy p(params);
  p.attach(f.ctx);
  // Pin file 9 on its first backend, then inflate that backend's view past
  // t_high while another backend sits below t_low.
  const int first = p.select_service_node(0, PolicyFixture::request_for(9));
  for (int i = 0; i < 7; ++i) (void)p.select_service_node(0, PolicyFixture::request_for(9));
  const int now_chosen = p.select_service_node(0, PolicyFixture::request_for(9));
  EXPECT_NE(now_chosen, first);  // set grew; the spare backend takes over
  EXPECT_TRUE(p.server_sets().contains(0, 9, now_chosen));
  EXPECT_GE(p.counters().set_grow, 1u);
}

TEST(LardPolicy, SingleNodeClusterServesLocally) {
  PolicyFixture f(1);
  LardPolicy p;
  p.attach(f.ctx);
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(0)), 0);
  p.on_complete(0, PolicyFixture::request_for(0));  // must not send messages
  f.drain();
  EXPECT_EQ(f.via.messages_sent(), 0u);
}

TEST(LardPolicy, HandoffCostIsFrontEndCalibration) {
  PolicyFixture f(2);
  LardPolicy p;
  p.attach(f.ctx);
  EXPECT_EQ(p.forward_cpu_time(0), f.nodes[0]->handoff_initiate_time());
}

TEST(LardPolicy, RejectsBadParams) {
  LardParams bad;
  bad.t_low = 10;
  bad.t_high = 5;
  EXPECT_THROW(LardPolicy{bad}, l2s::Error);
  bad = LardParams{};
  bad.update_batch = 0;
  EXPECT_THROW(LardPolicy{bad}, l2s::Error);
  // K must convert to a SimTime, for the front-end and the dispatcher.
  for (const double shrink : {std::nan(""), std::numeric_limits<double>::infinity(), -1.0}) {
    bad = LardParams{};
    bad.set_shrink_seconds = shrink;
    EXPECT_THROW(LardPolicy{bad}, l2s::Error) << shrink;
    EXPECT_THROW(LardDispatcherPolicy{bad}, l2s::Error) << shrink;
  }
}

}  // namespace
}  // namespace l2s::policy
