#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "l2sim/policy/traditional.hpp"
#include "policy_fixture.hpp"

namespace l2s::policy {
namespace {

using testing::PolicyFixture;

TEST(TraditionalPolicy, EntryIsFewestConnections) {
  PolicyFixture f(4);
  TraditionalPolicy p;
  p.attach(f.ctx);
  f.set_load(0, 5);
  f.set_load(1, 2);
  f.set_load(2, 7);
  f.set_load(3, 2);
  // Node 1 and 3 tie at 2; lowest id wins.
  EXPECT_EQ(p.entry_node(0, PolicyFixture::request_for(9)), 1);
  f.set_load(1, 3);
  EXPECT_EQ(p.entry_node(1, PolicyFixture::request_for(9)), 3);
}

TEST(TraditionalPolicy, NeverForwards) {
  PolicyFixture f(4);
  TraditionalPolicy p;
  p.attach(f.ctx);
  for (int entry = 0; entry < 4; ++entry) {
    EXPECT_EQ(p.select_service_node(entry, PolicyFixture::request_for(1)), entry);
  }
  EXPECT_EQ(p.forward_cpu_time(0), 0);
}

TEST(TraditionalPolicy, TracksChangingLoads) {
  PolicyFixture f(2);
  TraditionalPolicy p;
  p.attach(f.ctx);
  f.set_load(0, 1);
  EXPECT_EQ(p.entry_node(0, PolicyFixture::request_for(0)), 1);
  f.set_load(1, 4);
  EXPECT_EQ(p.entry_node(1, PolicyFixture::request_for(0)), 0);
}

TEST(TraditionalPolicy, SingleNodeCluster) {
  PolicyFixture f(1);
  TraditionalPolicy p;
  p.attach(f.ctx);
  EXPECT_EQ(p.entry_node(0, PolicyFixture::request_for(0)), 0);
  EXPECT_EQ(p.select_service_node(0, PolicyFixture::request_for(0)), 0);
}

TEST(TraditionalPolicy, SendsNoMessages) {
  PolicyFixture f(4);
  TraditionalPolicy p;
  p.attach(f.ctx);
  (void)p.select_service_node(0, PolicyFixture::request_for(0));
  p.on_complete(0, PolicyFixture::request_for(0));
  f.drain();
  EXPECT_EQ(f.via.messages_sent(), 0u);
}

// Random connection counts and down sets against a brute-force reference:
// the fewest open connections among the up nodes, the lowest index on a
// tie, node 0 when every node is down. Loads are drawn from a small range
// so ties are common, and small clusters so every node is often down.
TEST(TraditionalPolicy, EntryMatchesBruteForceOverRandomLoadsAndDownSets) {
  std::mt19937 gen(1999);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(gen() % 12);
    PolicyFixture f(n);
    TraditionalPolicy p;
    p.attach(f.ctx);
    std::vector<bool> down(static_cast<std::size_t>(n), false);
    for (int op = 0; op < 60; ++op) {
      const int node = static_cast<int>(gen() % static_cast<unsigned>(n));
      switch (gen() % 3) {
        case 0:
          f.set_load(node, static_cast<int>(gen() % 4));
          break;
        case 1:
          down[static_cast<std::size_t>(node)] = true;
          p.on_node_failed(node);
          break;
        default:
          down[static_cast<std::size_t>(node)] = false;
          p.on_node_recovered(node);
          break;
      }
      int expected = -1;
      for (int i = 0; i < n; ++i) {
        if (down[static_cast<std::size_t>(i)]) continue;
        if (expected < 0 ||
            f.ctx.node(i).open_connections() < f.ctx.node(expected).open_connections())
          expected = i;
      }
      if (expected < 0) expected = 0;
      ASSERT_EQ(p.entry_node(static_cast<std::uint64_t>(op), PolicyFixture::request_for(0)),
                expected)
          << "trial " << trial << " op " << op;
    }
  }
}

}  // namespace
}  // namespace l2s::policy
