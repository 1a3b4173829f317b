// A caller's continuation passes through the simulated message path as is.
//
// InlineEvent holds a capture of up to 48 bytes in place, and a larger one
// does not compile. A continuation that waits on a resource or a network
// hop is owned by that resource (des::Resource's in-service slot) or by the
// VIA message record, and the events themselves capture `this` plus
// scalars, never another EventFn: a layer that wrapped the caller's
// continuation in a bigger closure would not build. These tests send a
// continuation as large as the buffer through each layer and require that
// every one fires exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "l2sim/des/resource.hpp"
#include "l2sim/net/nic.hpp"
#include "l2sim/net/topology.hpp"
#include "l2sim/net/via.hpp"

namespace l2s {
namespace {

/// A caller continuation as large as the inline buffer holds: the layers
/// below must keep it as is, not wrap it in a bigger closure.
struct FullBuffer {
  int* fired;
  std::uint64_t pad[5];
  void operator()() const { ++*fired; }
};
static_assert(sizeof(FullBuffer) == des::InlineEvent::kInlineSize);

TEST(Continuations, FullBufferThroughQueuedResource) {
  des::Scheduler sched;
  des::Resource cpu(sched, "cpu");
  int fired = 0;
  for (int i = 0; i < 16; ++i) cpu.submit(10, FullBuffer{&fired, {}});
  EXPECT_EQ(cpu.queue_length(), 15u);
  sched.run();
  EXPECT_EQ(fired, 16);
  EXPECT_EQ(sched.now(), 160);
}

struct ViaRig {
  des::Scheduler sched;
  net::NetParams params;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<net::ViaNetwork> via;
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<net::Nic>> nics;

  ViaRig(const net::TopologyConfig& config, int nodes) {
    topo = net::Topology::make(config, sched, params, nodes);
    via = std::make_unique<net::ViaNetwork>(sched, *topo, params);
    for (int i = 0; i < nodes; ++i) {
      cpus.push_back(std::make_unique<des::Resource>(sched, "cpu" + std::to_string(i)));
      nics.push_back(std::make_unique<net::Nic>(sched, "node" + std::to_string(i)));
      via->add_endpoint({cpus.back().get(), nics.back().get()});
    }
  }
};

TEST(Continuations, FullBufferThroughViaOnEveryTopology) {
  net::TopologyConfig single;
  net::TopologyConfig rack;
  rack.kind = net::TopologyKind::kRackAware;
  rack.racks = 2;
  net::TopologyConfig fat_tree;
  fat_tree.kind = net::TopologyKind::kFatTree;
  fat_tree.fat_tree_k = 4;
  for (const net::TopologyConfig& config : {single, rack, fat_tree}) {
    SCOPED_TRACE(config.kind_name());
    ViaRig rig(config, 8);
    int fired = 0;
    int broadcast_deliveries = 0;
    // 0 -> 1 shares a rack (and an edge switch); 0 -> 7 and 2 -> 7 cross
    // racks (and pods) with payloads of three store-and-forward segments
    // on every capacitated link.
    const Bytes big = 40 * 1024;
    rig.via->send(0, 1, 4, FullBuffer{&fired, {}});
    rig.via->send(0, 7, big, FullBuffer{&fired, {}});
    rig.via->transmit(1, 2, 4, FullBuffer{&fired, {}});
    rig.via->transmit(2, 7, big, FullBuffer{&fired, {}});
    rig.via->bulk(7, 0, big, FullBuffer{&fired, {}});
    rig.via->broadcast(2, 16, [&broadcast_deliveries](int) { ++broadcast_deliveries; });
    rig.sched.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(broadcast_deliveries, 7);
  }
}

}  // namespace
}  // namespace l2s
