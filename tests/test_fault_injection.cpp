// Fault-injection behaviour: crash/recover lifecycle invariants, heartbeat
// detection, LARD front-end failover, client retries and deadlines under
// message loss, fail-slow degradation, and the VIA fault-layer accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "l2sim/core/simulation.hpp"
#include "l2sim/fault/detector.hpp"
#include "l2sim/fault/plan.hpp"
#include "l2sim/net/topology.hpp"
#include "l2sim/net/via.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/traditional.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace workload(std::uint64_t requests = 20000) {
  trace::SyntheticSpec spec;
  spec.name = "fault";
  spec.files = 400;
  spec.avg_file_kb = 8.0;
  spec.requests = requests;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 31;
  return trace::generate(spec);
}

SimConfig base(int nodes) {
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 4 * kMiB;
  return cfg;
}

void expect_bucket_invariant(const SimResult& r, std::uint64_t request_count) {
  EXPECT_EQ(r.completed + r.failed, request_count);
  EXPECT_EQ(r.failed, r.failed_deadline + r.failed_retries_exhausted +
                          r.failed_rejected + r.failed_shed);
}

// --- node restart semantics ----------------------------------------------

TEST(FaultInjection, NodeRestartIsColdAndCountsANewEpoch) {
  des::Scheduler sched;
  cluster::NodeParams params;
  params.cache_bytes = 1 * kMiB;
  cluster::Node n(sched, 0, params);
  n.file_cache().insert(7, 1000);
  n.connection_opened();
  ASSERT_TRUE(n.alive());
  ASSERT_EQ(n.epoch(), 0);

  n.fail();
  EXPECT_FALSE(n.alive());

  n.recover();
  EXPECT_TRUE(n.alive());
  EXPECT_EQ(n.epoch(), 1);
  EXPECT_EQ(n.open_connections(), 0);           // the crash orphaned the count
  EXPECT_FALSE(n.file_cache().contains(7));     // main memory did not survive
}

// --- VIA fault layer (unit) ----------------------------------------------

struct ScriptedFaults final : net::LinkFaultModel {
  net::LinkFault next;
  net::LinkFault on_message(int, int) override { return next; }
};

struct ViaFixture {
  des::Scheduler sched;
  net::NetParams params;
  net::SingleSwitch fabric{sched, params, 64};
  net::ViaNetwork via{sched, fabric, params};
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<net::Nic>> nics;

  explicit ViaFixture(int nodes) {
    for (int i = 0; i < nodes; ++i) {
      cpus.push_back(std::make_unique<des::Resource>(sched, "cpu" + std::to_string(i)));
      nics.push_back(std::make_unique<net::Nic>(sched, "node" + std::to_string(i)));
      via.add_endpoint({cpus.back().get(), nics.back().get()});
    }
  }
};

TEST(FaultInjection, DroppedMessageNeverDeliversAndIsCounted) {
  ViaFixture f(2);
  ScriptedFaults faults;
  faults.next.drop = true;
  f.via.set_fault_model(&faults);
  int delivered = 0;
  f.via.send(0, 1, 16, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.via.messages_dropped(), 1u);
  EXPECT_EQ(f.via.messages_sent(), 1u);  // the bytes left the sender
}

TEST(FaultInjection, DuplicateDeliversHandlerExactlyOnce) {
  ViaFixture f(2);
  ScriptedFaults faults;
  faults.next.duplicate = true;
  f.via.set_fault_model(&faults);
  int delivered = 0;
  f.via.send(0, 1, 16, [&] { ++delivered; });
  f.sched.run();
  EXPECT_EQ(delivered, 1);  // the copy burns NIC time but is suppressed
  EXPECT_EQ(f.via.messages_duplicated(), 1u);
}

TEST(FaultInjection, ExtraDelayPostponesDelivery) {
  ViaFixture healthy(2);
  SimTime base_arrival = 0;
  healthy.via.send(0, 1, 16, [&] { base_arrival = healthy.sched.now(); });
  healthy.sched.run();

  ViaFixture f(2);
  ScriptedFaults faults;
  faults.next.extra_delay = seconds_to_simtime(0.003);
  f.via.set_fault_model(&faults);
  SimTime arrival = 0;
  f.via.send(0, 1, 16, [&] { arrival = f.sched.now(); });
  f.sched.run();
  EXPECT_EQ(f.via.messages_delayed(), 1u);
  EXPECT_EQ(arrival - base_arrival, seconds_to_simtime(0.003));
}

TEST(FaultInjection, ResetStatsClearsTheFaultCountersToo) {
  // Regression: reset_stats() used to clear only messages_, so warm-up
  // faults would bleed into measured statistics.
  ViaFixture f(2);
  ScriptedFaults faults;
  faults.next.drop = true;
  f.via.set_fault_model(&faults);
  f.via.send(0, 1, 16, [] {});
  f.sched.run();
  faults.next = {};
  faults.next.duplicate = true;
  faults.next.extra_delay = seconds_to_simtime(0.001);
  f.via.send(0, 1, 16, [] {});
  f.sched.run();
  ASSERT_GT(f.via.messages_dropped() + f.via.messages_duplicated() +
                f.via.messages_delayed(),
            0u);
  f.via.reset_stats();
  EXPECT_EQ(f.via.messages_sent(), 0u);
  EXPECT_EQ(f.via.messages_dropped(), 0u);
  EXPECT_EQ(f.via.messages_duplicated(), 0u);
  EXPECT_EQ(f.via.messages_delayed(), 0u);
}

// A broadcast's N-1 messages share one copy of its callable. The probe
// counts live copies of the callable: one while any message is in flight,
// none once the last one is delivered or dropped.
struct PayloadProbe {
  int* live;
  explicit PayloadProbe(int* count) : live(count) { ++*live; }
  PayloadProbe(const PayloadProbe& other) : live(other.live) { ++*live; }
  PayloadProbe& operator=(const PayloadProbe&) = delete;
  ~PayloadProbe() { --*live; }
};

/// Faults by destination: drop 1 and 5, duplicate 2 and 6, delay 3, delay
/// and duplicate 7; 4 is healthy.
struct PerDestinationFaults final : net::LinkFaultModel {
  net::LinkFault on_message(int /*src*/, int dst) override {
    net::LinkFault f;
    f.drop = dst % 4 == 1;
    f.duplicate = dst % 4 == 2 || dst == 7;
    if (dst % 4 == 3) f.extra_delay = seconds_to_simtime(0.002);
    return f;
  }
};

TEST(FaultInjection, BroadcastPayloadOutlivesEveryMessageExactlyOnce) {
  net::TopologyConfig single;
  net::TopologyConfig rack;
  rack.kind = net::TopologyKind::kRackAware;
  rack.racks = 2;
  for (const net::TopologyConfig& config : {single, rack}) {
    SCOPED_TRACE(config.kind_name());
    des::Scheduler sched;
    net::NetParams params;
    const auto topo = net::Topology::make(config, sched, params, 8);
    net::ViaNetwork via(sched, *topo, params);
    std::vector<std::unique_ptr<des::Resource>> cpus;
    std::vector<std::unique_ptr<net::Nic>> nics;
    for (int i = 0; i < 8; ++i) {
      cpus.push_back(std::make_unique<des::Resource>(sched, "cpu" + std::to_string(i)));
      nics.push_back(std::make_unique<net::Nic>(sched, "node" + std::to_string(i)));
      via.add_endpoint({cpus.back().get(), nics.back().get()});
    }
    PerDestinationFaults faults;
    via.set_fault_model(&faults);

    int live = 0;
    std::vector<int> deliveries(8, 0);
    int live_at_delivery = -1;
    via.broadcast(0, 16 * 1024, [probe = PayloadProbe(&live), &deliveries,
                                 &live_at_delivery](int dst) {
      ++deliveries[static_cast<std::size_t>(dst)];
      live_at_delivery = std::max(live_at_delivery, *probe.live);
    });
    EXPECT_EQ(live, 1);  // one shared copy, not one per destination
    sched.run();
    EXPECT_EQ(live, 0);  // released once the queue drained
    EXPECT_EQ(live_at_delivery, 1);
    EXPECT_EQ(deliveries, (std::vector<int>{0, 0, 1, 1, 1, 0, 1, 1}));
    EXPECT_EQ(via.messages_sent(), 7u);
    EXPECT_EQ(via.messages_dropped(), 2u);
    EXPECT_EQ(via.messages_duplicated(), 3u);
    EXPECT_EQ(via.messages_delayed(), 2u);
    EXPECT_EQ(via.messages_delivered(), 5u);
  }
}

TEST(FaultInjection, BroadcastWithoutPeersReleasesItsPayloadAtOnce) {
  ViaFixture f(1);
  int live = 0;
  int deliveries = 0;
  f.via.broadcast(0, 16, [probe = PayloadProbe(&live), &deliveries](int) { ++deliveries; });
  EXPECT_EQ(live, 0);
  EXPECT_TRUE(f.sched.empty());
  f.sched.run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(f.via.messages_sent(), 0u);
}

// --- crash / recover integration -----------------------------------------

TEST(FaultInjection, CrashThenRecoverServesTheWholeTail) {
  const auto tr = workload();
  auto cfg = base(8);
  cfg.fault_plan.crashes.push_back({3, 0.2});
  cfg.fault_plan.recoveries.push_back({3, 0.6});
  cfg.failure_detection_seconds = 0.1;  // detect well before the restart
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  expect_bucket_invariant(r, tr.request_count());
  EXPECT_GT(r.failed, 0u);  // in-flight work died with the node
  EXPECT_GT(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.95);
  EXPECT_GT(r.detection_latency_ms, 0.0);
  EXPECT_GT(r.time_to_recover_ms, 0.0);
  EXPECT_EQ(sim.node(3).epoch(), 1);  // exactly one restart happened
  EXPECT_TRUE(sim.node(3).alive());
}

TEST(FaultInjection, RecoveredNodeComesBackCold) {
  const auto tr = workload();
  ClusterSimulation healthy_sim(base(8), tr, std::make_unique<policy::L2sPolicy>());
  const auto healthy = healthy_sim.run();

  auto cfg = base(8);
  cfg.fault_plan.crashes.push_back({3, 0.2});
  cfg.fault_plan.recoveries.push_back({3, 0.5});
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  // The restarted node re-faults everything it serves: strictly more
  // misses than the uninterrupted run.
  EXPECT_LT(r.hit_rate, healthy.hit_rate);
}

TEST(FaultInjection, HeartbeatsDetectAndReadmit) {
  const auto tr = workload();
  auto cfg = base(4);
  cfg.fault_plan.crashes.push_back({1, 0.2});
  cfg.fault_plan.recoveries.push_back({1, 0.5});
  cfg.detection.heartbeats = true;
  cfg.detection.period_seconds = 0.02;
  cfg.detection.suspect_after_missed = 3;
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  expect_bucket_invariant(r, tr.request_count());
  EXPECT_GT(r.heartbeats, 0u);
  // Suspicion needs K silent periods; the monitor sweeps once per period,
  // and heartbeats queue behind real work, so detection lands near the
  // 60 ms suspicion window — well inside an order of magnitude.
  EXPECT_GE(r.detection_latency_ms, 0.02 * 1000.0);
  EXPECT_LE(r.detection_latency_ms, 250.0);
  // Readmission: the restarted node's next heartbeat round brings it back.
  EXPECT_GT(r.time_to_recover_ms, 0.0);
  EXPECT_LE(r.time_to_recover_ms, 200.0);
  EXPECT_GT(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.9);
}

// A link whose loss pattern flaps: heartbeats from node 1 vanish during an
// outage window except for one lucky beat in the middle. Time-driven, not
// random, so the flap count is exact.
struct FlappyLink final : net::LinkFaultModel {
  des::Scheduler& sched;
  explicit FlappyLink(des::Scheduler& s) : sched(s) {}
  net::LinkFault on_message(int src, int /*dst*/) override {
    net::LinkFault f;
    if (src != 1) return f;
    const double now = simtime_to_seconds(sched.now());
    const bool lucky = now >= 0.44 && now <= 0.46;  // the 0.45 s beat survives
    f.drop = now >= 0.21 && now <= 0.699 && !lucky;
    return f;
  }
};

/// Drive the detector over the flapping link and count node 1's suspect /
/// readmit notifications.
std::pair<int, int> run_flappy_detector(int readmit_after_fresh) {
  des::Scheduler sched;
  net::NetParams params;
  net::SingleSwitch fabric{sched, params, 64};
  net::ViaNetwork via{sched, fabric, params};
  cluster::NodeParams node_params;
  node_params.cache_bytes = 1 * kMiB;
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::vector<cluster::Node*> node_ptrs;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<cluster::Node>(sched, i, node_params));
    via.add_endpoint({&nodes.back()->cpu(), &nodes.back()->nic()});
    node_ptrs.push_back(nodes.back().get());
  }
  FlappyLink link(sched);
  via.set_fault_model(&link);

  fault::DetectionParams det;
  det.heartbeats = true;
  det.period_seconds = 0.05;
  det.suspect_after_missed = 3;
  det.readmit_after_fresh = readmit_after_fresh;
  fault::FailureDetector detector(sched, via, node_ptrs, det, 16);
  int suspects = 0;
  int readmits = 0;
  detector.start([&] { return sched.now() < seconds_to_simtime(1.0); },
                 [&](int node, SimTime) { suspects += node == 1 ? 1 : 0; },
                 [&](int node, SimTime) { readmits += node == 1 ? 1 : 0; });
  sched.run();
  return {suspects, readmits};
}

TEST(FaultInjection, ReadmitHysteresisDampsFlapping) {
  // Legacy readmit-on-first-fresh-sweep: the lucky 0.45 s heartbeat
  // readmits the node mid-outage, which then gets suspected again when the
  // loss resumes — the node flaps in and out of the cluster.
  const auto [legacy_suspects, legacy_readmits] = run_flappy_detector(1);
  EXPECT_EQ(legacy_suspects, 2);
  EXPECT_EQ(legacy_readmits, 2);

  // With a 4-sweep streak requirement the lone heartbeat buys only 3 fresh
  // sweeps (the suspicion window spans 3 periods) before the loss resumes
  // and resets the streak: one suspicion, one readmission, no flapping.
  const auto [damped_suspects, damped_readmits] = run_flappy_detector(4);
  EXPECT_EQ(damped_suspects, 1);
  EXPECT_EQ(damped_readmits, 1);
}

// --- LARD warm-spare failover --------------------------------------------

TEST(FaultInjection, LardFrontEndFailoverConvertsSpofIntoAWindow) {
  const auto tr = workload();

  auto cfg = base(8);
  cfg.fault_plan.crashes.push_back({policy::LardPolicy::front_end(), 0.2});
  cfg.failure_detection_seconds = 0.1;

  ClusterSimulation doomed(cfg, tr, std::make_unique<policy::LardPolicy>());
  const auto without = doomed.run();
  EXPECT_GT(without.failed, tr.request_count() / 2);  // the paper's SPOF

  policy::LardParams params;
  params.front_end_failover = true;
  auto policy = std::make_unique<policy::LardPolicy>(params);
  const auto* lard = policy.get();
  ClusterSimulation sim(cfg, tr, std::move(policy));
  const auto r = sim.run();
  expect_bucket_invariant(r, tr.request_count());
  // Only the detection window is lost; the promoted back-end carries on.
  EXPECT_GT(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.8);
  EXPECT_LT(r.failed, without.failed / 4);
  EXPECT_NE(lard->current_front_end(), policy::LardPolicy::front_end());
  EXPECT_EQ(sim.policy().counters().front_end_failover, 1u);
}

// --- client-side robustness ----------------------------------------------

TEST(FaultInjection, RetriesRecoverRequestsKilledByACrash) {
  const auto tr = workload();
  auto cfg = base(8);
  cfg.fault_plan.crashes.push_back({3, 0.2});
  cfg.failure_detection_seconds = 0.5;  // long exposure window

  ClusterSimulation failfast(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto without = failfast.run();
  ASSERT_GT(without.failed, 0u);
  EXPECT_EQ(without.retry_attempts, 0u);
  EXPECT_EQ(without.retry_amplification, 1.0);

  auto retry_cfg = cfg;
  retry_cfg.retry.max_retries = 3;
  ClusterSimulation sim(retry_cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  expect_bucket_invariant(r, tr.request_count());
  EXPECT_LT(r.failed, without.failed);
  EXPECT_GT(r.completed_after_retry, 0u);
  EXPECT_GT(r.retry_attempts, 0u);
  EXPECT_GT(r.retry_amplification, 1.0);
}

TEST(FaultInjection, OnePercentLossCompletesAlmostEverythingWithRetries) {
  const auto tr = workload();
  auto cfg = base(8);
  cfg.fault_plan.message_faults.push_back({.loss_prob = 0.01});
  cfg.retry.max_retries = 3;
  // The timeout must clear the saturation-replay queueing delays by a wide
  // margin, or healthy-but-queued attempts get retried into a retry storm.
  cfg.retry.attempt_timeout_seconds = 0.5;
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  expect_bucket_invariant(r, tr.request_count());
  EXPECT_GT(r.via_dropped, 0u);
  EXPECT_GE(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.99);
}

TEST(FaultInjection, DeadlineReapsRequestsStrandedByLoss) {
  // Loss with no retries and no attempt timeout: only the per-request
  // deadline keeps stranded hand-offs from holding their slots forever.
  const auto tr = workload();
  auto cfg = base(8);
  cfg.fault_plan.message_faults.push_back({.loss_prob = 0.05});
  cfg.retry.deadline_seconds = 0.2;
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  expect_bucket_invariant(r, tr.request_count());
  EXPECT_GT(r.failed_deadline, 0u);
}

// --- fail-slow and benign message faults ---------------------------------

TEST(FaultInjection, FailSlowCpuDegradesThroughput) {
  const auto tr = workload();
  ClusterSimulation healthy_sim(base(8), tr, std::make_unique<policy::TraditionalPolicy>());
  const auto healthy = healthy_sim.run();

  auto cfg = base(8);
  for (int n = 0; n < 4; ++n)
    cfg.fault_plan.slowdowns.push_back({n, fault::Resource::kCpu, 8.0, 0.0});
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::TraditionalPolicy>());
  const auto r = sim.run();
  EXPECT_LT(r.throughput_rps, healthy.throughput_rps);
  EXPECT_EQ(r.completed + r.failed, tr.request_count());
}

TEST(FaultInjection, FailSlowWindowEndsAndTheFactorResets) {
  const auto tr = workload(4000);
  auto cfg = base(4);
  cfg.fault_plan.slowdowns.push_back({2, fault::Resource::kCpu, 8.0, 0.0, 0.05});
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::TraditionalPolicy>());
  const auto r = sim.run();
  EXPECT_EQ(r.completed, tr.request_count());
  EXPECT_EQ(sim.node(2).cpu_slow(), 1.0);  // restored when the window closed
}

TEST(FaultInjection, DuplicationAndDelayAreHarmless) {
  const auto tr = workload();
  auto cfg = base(8);
  cfg.fault_plan.message_faults.push_back(
      {.extra_delay_seconds = 0.001, .duplicate_prob = 0.3});
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  // Not lossy: nothing fails, dedup keeps semantics intact.
  EXPECT_EQ(r.completed, tr.request_count());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.via_duplicated, 0u);
  EXPECT_GT(r.via_delayed, 0u);
}

// --- goodput timeline ----------------------------------------------------

TEST(FaultInjection, GoodputTimelineAccountsForEveryCompletion) {
  const auto tr = workload();
  auto cfg = base(8);
  cfg.fault_plan.crashes.push_back({3, 0.2});
  cfg.goodput_interval_seconds = 0.1;
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  ASSERT_FALSE(r.goodput_rps.empty());
  EXPECT_EQ(r.goodput_interval_seconds, 0.1);
  const double total =
      std::accumulate(r.goodput_rps.begin(), r.goodput_rps.end(), 0.0) * 0.1;
  EXPECT_NEAR(total, static_cast<double>(r.completed), 1e-6);
}

}  // namespace
}  // namespace l2s::core
