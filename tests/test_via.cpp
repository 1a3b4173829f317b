#include <gtest/gtest.h>

#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/des/resource.hpp"
#include "l2sim/net/via.hpp"

namespace l2s::net {
namespace {

struct ViaFixture {
  des::Scheduler sched;
  NetParams params;
  SingleSwitch fabric{sched, params, 64};
  ViaNetwork via{sched, fabric, params};
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<Nic>> nics;

  explicit ViaFixture(int nodes) {
    for (int i = 0; i < nodes; ++i) {
      cpus.push_back(std::make_unique<des::Resource>(sched, "cpu" + std::to_string(i)));
      nics.push_back(std::make_unique<Nic>(sched, "node" + std::to_string(i)));
      via.add_endpoint({cpus.back().get(), nics.back().get()});
    }
  }
};

TEST(Via, SendTakes19usOneWayForTinyMessage) {
  ViaFixture f(2);
  SimTime delivered = 0;
  f.via.send(0, 1, 4, [&] { delivered = f.sched.now(); });
  f.sched.run();
  EXPECT_NEAR(simtime_to_seconds(delivered), 19e-6, 0.1e-6);
}

TEST(Via, TransmitSkipsCpuOverheads) {
  ViaFixture f(2);
  SimTime delivered = 0;
  f.via.transmit(0, 1, 4, [&] { delivered = f.sched.now(); });
  f.sched.run();
  // 6us + wire each NIC + 1us switch = ~13us.
  EXPECT_NEAR(simtime_to_seconds(delivered), 13e-6, 0.2e-6);
}

TEST(Via, PayloadAddsTransferTime) {
  ViaFixture f(2);
  SimTime small = 0;
  SimTime large = 0;
  f.via.transmit(0, 1, 4, [&] { small = f.sched.now(); });
  f.sched.run();
  ViaFixture g(2);
  g.via.transmit(0, 1, 125000, [&] { large = g.sched.now(); });
  g.sched.run();
  // 125000 bytes = 1 ms on the wire, paid at both NICs.
  EXPECT_NEAR(simtime_to_seconds(large - small), 2e-3, 1e-5);
}

TEST(Via, BroadcastReachesAllOthers) {
  ViaFixture f(4);
  std::vector<int> arrived;
  f.via.broadcast(1, 16, [&](int dst) { arrived.push_back(dst); });
  f.sched.run();
  std::sort(arrived.begin(), arrived.end());
  EXPECT_EQ(arrived, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(f.via.messages_sent(), 3u);
}

TEST(Via, MessagesShareCpuWithOtherWork) {
  ViaFixture f(2);
  // Occupy the sender's CPU; the VIA send must wait its turn.
  f.cpus[0]->submit(seconds_to_simtime(1e-3), [] {});
  SimTime delivered = 0;
  f.via.send(0, 1, 4, [&] { delivered = f.sched.now(); });
  f.sched.run();
  EXPECT_NEAR(simtime_to_seconds(delivered), 1e-3 + 19e-6, 1e-6);
}

TEST(Via, SelfTransmitRejected) {
  ViaFixture f(2);
  EXPECT_THROW(f.via.transmit(1, 1, 4, [] {}), l2s::Error);
}

TEST(Via, SelfSendRejected) {
  ViaFixture f(2);
  EXPECT_THROW(f.via.send(1, 1, 4, [] {}), l2s::Error);
  // Rejected at the call: the sender's CPU was never charged.
  EXPECT_FALSE(f.cpus[1]->busy());
  EXPECT_TRUE(f.sched.empty());
}

TEST(Via, MessagePoolGrowsByChunksAndReusesRecords) {
  ViaFixture f(2);
  EXPECT_EQ(f.via.message_pool_capacity(), 0u);  // nothing pre-sized
  int delivered = 0;
  f.via.transmit(0, 1, 4, [&] { ++delivered; });
  const std::size_t chunk = f.via.message_pool_capacity();
  ASSERT_GT(chunk, 0u);
  // Enough messages in flight at once to need several chunks.
  const int burst = static_cast<int>(2 * chunk + chunk / 2);
  for (int i = 1; i < burst; ++i) f.via.send(0, 1, 4, [&] { ++delivered; });
  const std::size_t grown = f.via.message_pool_capacity();
  EXPECT_EQ(grown % chunk, 0u);
  EXPECT_GE(grown, static_cast<std::size_t>(burst));
  EXPECT_LT(grown, static_cast<std::size_t>(burst) + chunk);
  f.sched.run();
  EXPECT_EQ(delivered, burst);
  // Delivered records went back on the free list: a second burst reuses them.
  for (int i = 0; i < burst; ++i) f.via.send(1, 0, 4, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 2 * burst);
  EXPECT_EQ(f.via.message_pool_capacity(), grown);
}

TEST(Via, BadEndpointRejected) {
  ViaFixture f(2);
  EXPECT_THROW(f.via.transmit(0, 5, 4, [] {}), l2s::Error);
  EXPECT_THROW(f.via.send(-1, 0, 4, [] {}), l2s::Error);
  EXPECT_THROW(f.via.add_endpoint({nullptr, nullptr}), l2s::Error);
}

TEST(Via, StatsCountAndReset) {
  ViaFixture f(3);
  f.via.send(0, 1, 4, [] {});
  f.via.send(1, 2, 4, [] {});
  f.sched.run();
  EXPECT_EQ(f.via.messages_sent(), 2u);
  f.via.reset_stats();
  EXPECT_EQ(f.via.messages_sent(), 0u);
}

}  // namespace
}  // namespace l2s::net
