#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <tuple>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/des/resource.hpp"
#include "l2sim/net/via.hpp"

namespace l2s::net {
namespace {

struct ViaFixture {
  des::Scheduler sched;
  NetParams params;
  std::unique_ptr<Topology> fabric;
  ViaNetwork via;
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<Nic>> nics;

  explicit ViaFixture(int nodes, const TopologyConfig& config = {})
      : fabric(Topology::make(config, sched, params, nodes)), via(sched, *fabric, params) {
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

// --- broadcasts ---------------------------------------------------------------

/// The unicast pairs storm() sends between broadcast deliveries.
constexpr int kUnicasts = 40;

/// A seeded oracle: each message is dropped, duplicated or delayed at random.
struct RandomLinkFaults final : LinkFaultModel {
  Rng rng{0xB40ADCA5};
  LinkFault on_message(int /*src*/, int /*dst*/) override {
    LinkFault f;
    f.drop = rng.next_double() < 0.05;
    f.duplicate = rng.next_double() < 0.1;
    if (rng.next_double() < 0.1) f.extra_delay = 4'000;
    return f;
  }
};

/// Everything a run of the network shows: each delivery as (time, src,
/// dst), every CPU and NIC's completed jobs and busy time, and the five
/// message counters.
struct Outcome {
  std::vector<std::tuple<SimTime, int, int>> deliveries;
  std::vector<std::uint64_t> jobs;
  std::vector<SimTime> busy;
  std::array<std::uint64_t, 5> counters{};
};

/// Every endpoint of a 64-endpoint network broadcasts at t = 0, odd ones
/// 16 bytes and even ones 1,500, so each receiver's deliveries alternate
/// between two NIC service times; the first delivery from 0 to 1 makes 1
/// broadcast again from inside the handler. Unicast traffic cuts into the
/// senders' NIC queues at 20 us, and every 9 us for the first 360 us a
/// send and a transmit land between the deliveries queued at two of the
/// receivers' rx NICs (and the send at its CPU). With `by_sends` the test
/// issues each broadcast as N-1 send() calls in destination order instead
/// of one broadcast() call.
Outcome storm(const TopologyConfig& config, bool faults, bool by_sends) {
  constexpr int kNodes = 64;
  RandomLinkFaults oracle;  // outlives the network, as set_fault_model asks
  ViaFixture f(kNodes, config);
  if (faults) f.via.set_fault_model(&oracle);
  Outcome out;
  bool echoed = false;
  std::function<void(int)> cast = [&](int src) {
    const Bytes size = src % 2 == 0 ? 1'500 : 16;
    const auto on_delivered = [&, src](int dst) {
      out.deliveries.emplace_back(f.sched.now(), src, dst);
      if (src == 0 && dst == 1 && !echoed) {
        echoed = true;
        cast(1);
      }
    };
    if (!by_sends) {
      f.via.broadcast(src, size, on_delivered);
      return;
    }
    for (int dst = 0; dst < kNodes; ++dst) {
      if (dst != src) f.via.send(src, dst, size, [on_delivered, dst] { on_delivered(dst); });
    }
  };
  for (int src = 0; src < kNodes; ++src) cast(src);
  f.sched.at(20'000, [&] {
    f.via.send(0, 2, 16, [&] { out.deliveries.emplace_back(f.sched.now(), -1, 2); });
    f.via.transmit(5, 3, 4096, [&] { out.deliveries.emplace_back(f.sched.now(), -1, 3); });
  });
  for (int k = 0; k < kUnicasts; ++k) {
    f.sched.at(10'000 + k * 9'000, [&, k] {
      const int to = (k * 7 + 3) % kNodes;
      const int from = (to + 1 + k % 5) % kNodes;
      f.via.send(from, to, 64, [&, to] { out.deliveries.emplace_back(f.sched.now(), -2, to); });
      f.via.transmit(to, from, static_cast<Bytes>(256 * (k % 3)),
                     [&, from] { out.deliveries.emplace_back(f.sched.now(), -3, from); });
    });
  }
  f.sched.run();
  for (int i = 0; i < kNodes; ++i) {
    for (const des::Resource* r : {f.cpus[static_cast<std::size_t>(i)].get(),
                                   &f.nics[static_cast<std::size_t>(i)]->tx(),
                                   &f.nics[static_cast<std::size_t>(i)]->rx()}) {
      out.jobs.push_back(r->jobs_completed());
      out.busy.push_back(r->busy_time());
    }
  }
  out.counters = {f.via.messages_sent(), f.via.messages_dropped(),
                  f.via.messages_duplicated(), f.via.messages_delayed(),
                  f.via.messages_delivered()};
  EXPECT_TRUE(echoed);
  EXPECT_EQ(f.via.message_records_in_use(), 0u);
  return out;
}

TEST(ViaBroadcast, EqualsItsPointToPointSends) {
  TopologyConfig single;
  TopologyConfig rack;
  rack.kind = TopologyKind::kRackAware;
  rack.racks = 4;
  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.fat_tree_k = 8;
  for (const TopologyConfig& config : {single, rack, fat_tree}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(std::string(config.kind_name()) + (faults ? " faults" : " healthy"));
      const Outcome cast = storm(config, faults, false);
      const Outcome sends = storm(config, faults, true);
      // 64 x 63 broadcast messages, 63 echoed, the unicasts.
      EXPECT_EQ(cast.counters[0], 64u * 63u + 63u + 2u + 2u * kUnicasts);
      if (faults) {
        EXPECT_GT(cast.counters[1], 0u);
        EXPECT_GT(cast.counters[2], 0u);
        EXPECT_GT(cast.counters[3], 0u);
      } else {
        EXPECT_EQ(cast.counters[4], cast.counters[0]);
      }
      EXPECT_EQ(cast.deliveries.size(), sends.deliveries.size());
      EXPECT_TRUE(cast.deliveries == sends.deliveries);
      EXPECT_EQ(cast.jobs, sends.jobs);
      EXPECT_EQ(cast.busy, sends.busy);
      EXPECT_EQ(cast.counters, sends.counters);
    }
  }
}

// A broadcast costs one CPU queue entry up front, and none of its
// messages ever takes a message record: eight of 2,049 endpoints
// broadcast at once, and each receiver queues the deliveries in delivery
// runs.
TEST(ViaBroadcast, TakesNoMessageRecordUpFront) {
  constexpr int kNodes = 2049;
  ViaFixture f(kNodes);
  int delivered = 0;
  for (int src = 0; src < 8; ++src) f.via.broadcast(src, 16, [&](int) { ++delivered; });
  EXPECT_EQ(f.via.message_pool_capacity(), 0u);
  EXPECT_TRUE(f.cpus[0]->busy());
  EXPECT_EQ(f.cpus[0]->queue_length(), 2047u);
  f.sched.run();
  EXPECT_EQ(delivered, 8 * (kNodes - 1));
  EXPECT_EQ(f.cpus[0]->jobs_completed(), 2048u + 7u);
  EXPECT_EQ(f.nics[0]->tx().jobs_completed(), 2048u);
  EXPECT_EQ(f.nics[0]->rx().jobs_completed(), 7u);
  EXPECT_EQ(f.via.message_pool_capacity(), 0u);
  // A receiver's seven or eight deliveries wait in at most two runs a
  // queue (the eighth source's first message may find the queues idle).
  for (int i = 8; i < kNodes; ++i) {
    EXPECT_EQ(f.cpus[static_cast<std::size_t>(i)]->jobs_completed(), 8u);
    EXPECT_LE(f.nics[static_cast<std::size_t>(i)]->rx().peak_queue_entries(), 1u) << i;
    EXPECT_LE(f.cpus[static_cast<std::size_t>(i)]->peak_queue_entries(), 1u) << i;
  }
}

}  // namespace
}  // namespace l2s::net
