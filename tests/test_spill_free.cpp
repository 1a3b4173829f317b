// Zero-spill net for the simulated message path.
//
// InlineEvent stores a capture of up to 48 bytes in place and spills larger
// ones into EventArena. The message path keeps every hot-path event inside
// that buffer by one rule: a continuation that waits on a resource or a
// network hop is owned by that resource (des::Resource's in-service slot)
// or by the VIA message record, and the events themselves capture `this`
// plus scalars, never another EventFn. These tests read the arena's
// traffic counters around each layer, and around scaled-down runs of the
// benchmark's three configurations, and require that nothing spilled.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/des/event.hpp"
#include "l2sim/des/resource.hpp"
#include "l2sim/net/nic.hpp"
#include "l2sim/net/topology.hpp"
#include "l2sim/net/via.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s {
namespace {

/// Blocks the arena handed out so far on this thread.
std::uint64_t arena_blocks() {
  const des::EventArena::Stats s = des::EventArena::stats();
  return s.fresh_blocks + s.reused_blocks + s.oversize;
}

/// A caller continuation as large as the inline buffer holds: the layers
/// below must keep it as is, not wrap it in a bigger closure.
struct FullBuffer {
  int* fired;
  std::uint64_t pad[5];
  void operator()() const { ++*fired; }
};
static_assert(sizeof(FullBuffer) == des::InlineEvent::kInlineSize);

TEST(SpillFree, ResourceWithQueuedJobs) {
  des::Scheduler sched;
  des::Resource cpu(sched, "cpu");
  int fired = 0;
  const std::uint64_t before = arena_blocks();
  for (int i = 0; i < 16; ++i) cpu.submit(10, FullBuffer{&fired, {}});
  EXPECT_EQ(cpu.queue_length(), 15u);
  sched.run();
  EXPECT_EQ(fired, 16);
  EXPECT_EQ(arena_blocks(), before);
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

TEST(SpillFree, ViaSendTransmitBroadcast) {
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
    const std::uint64_t before = arena_blocks();
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
    EXPECT_EQ(arena_blocks(), before);
  }
}

trace::Trace scaled_paper_trace(const std::string& paper, std::uint64_t requests) {
  trace::SyntheticSpec spec = trace::paper_trace_spec(paper);
  spec.requests = requests;
  return trace::generate(spec);
}

core::SimResult expect_spill_free_run(const core::SimConfig& cfg, const trace::Trace& tr,
                                      core::PolicyKind kind) {
  const std::uint64_t before = arena_blocks();
  core::ClusterSimulation sim(cfg, tr, core::make_policy(kind, 0.5));
  core::SimResult r = sim.run();
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(arena_blocks(), before);
  return r;
}

// Scaled-down versions of the benchmark's workloads (perfbench/BASELINE.md).
TEST(SpillFree, L2sCalgaryRun) {
  core::SimConfig cfg;
  cfg.nodes = 8;
  cfg.node.cache_bytes = 2 * kMiB;
  const core::SimResult r =
      expect_spill_free_run(cfg, scaled_paper_trace("calgary", 3000), core::PolicyKind::kL2s);
  EXPECT_GT(r.forwarded, 0u);
}

TEST(SpillFree, TraditionalClarknetRun) {
  core::SimConfig cfg;
  cfg.nodes = 16;
  cfg.node.cache_bytes = 2 * kMiB;
  expect_spill_free_run(cfg, scaled_paper_trace("clarknet", 3000),
                        core::PolicyKind::kTraditional);
}

TEST(SpillFree, LardNasaOpenRackRun) {
  core::SimConfig cfg;
  cfg.nodes = 8;
  cfg.node.cache_bytes = 2 * kMiB;
  cfg.topology.kind = net::TopologyKind::kRackAware;
  cfg.topology.racks = 4;
  cfg.topology.oversubscription = 4.0;
  cfg.arrival.open_loop_rate = 100.0;
  cfg.persistence.mean_requests_per_connection = 4.0;
  cfg.persistence.mode = core::PersistentMode::kBackendForwarding;
  cfg.telemetry.enabled = true;
  cfg.telemetry.span_sample_every = 64;
  cfg.obs.enabled = true;
  const core::SimResult r =
      expect_spill_free_run(cfg, scaled_paper_trace("nasa", 3000), core::PolicyKind::kLard);
  EXPECT_GT(r.remote_fetches, 0u);
}

}  // namespace
}  // namespace l2s
