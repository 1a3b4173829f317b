// Failure injection: the availability properties the paper claims — L2S
// has no single point of failure, while LARD's front-end is one.
#include <gtest/gtest.h>

#include <numeric>

#include "l2sim/core/experiment.hpp"
#include "l2sim/policy/consistent_hash.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/round_robin.hpp"
#include "l2sim/policy/traditional.hpp"
#include "l2sim/trace/synthetic.hpp"
#include "policy_fixture.hpp"

namespace l2s::core {
namespace {

trace::Trace workload(std::uint64_t requests = 20000) {
  trace::SyntheticSpec spec;
  spec.name = "avail";
  spec.files = 400;
  spec.avg_file_kb = 8.0;
  spec.requests = requests;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 31;
  return trace::generate(spec);
}

SimConfig failing_config(int nodes, int dead_node, double at_seconds) {
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 4 * kMiB;
  cfg.fault_plan.crashes.push_back({dead_node, at_seconds});
  return cfg;
}

TEST(Failures, L2sSurvivesNodeLoss) {
  const auto tr = workload();
  // Kill node 3 early in the measured pass.
  ClusterSimulation sim(failing_config(8, 3, 0.2), tr,
                        std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  // Some requests in flight at (or routed to) the dead node fail, but the
  // cluster keeps serving: the vast majority completes.
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(r.completed + r.failed, tr.request_count());
  EXPECT_GT(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.95);
}

TEST(Failures, LardFrontEndIsSinglePointOfFailure) {
  const auto tr = workload();
  ClusterSimulation sim(failing_config(8, policy::LardPolicy::front_end(), 0.2), tr,
                        std::make_unique<policy::LardPolicy>());
  const auto r = sim.run();
  // Everything after the crash fails: the completed fraction is roughly
  // the fraction of the trace served before the front-end died.
  EXPECT_EQ(r.completed + r.failed, tr.request_count());
  EXPECT_GT(r.failed, tr.request_count() / 2);
}

TEST(Failures, LardSurvivesBackEndLoss) {
  const auto tr = workload();
  ClusterSimulation sim(failing_config(8, 3, 0.2), tr,
                        std::make_unique<policy::LardPolicy>());
  const auto r = sim.run();
  EXPECT_EQ(r.completed + r.failed, tr.request_count());
  EXPECT_GT(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.95);
}

TEST(Failures, TraditionalSwitchRoutesAroundDeadNode) {
  const auto tr = workload();
  ClusterSimulation sim(failing_config(8, 2, 0.2), tr,
                        std::make_unique<policy::TraditionalPolicy>());
  const auto r = sim.run();
  EXPECT_EQ(r.completed + r.failed, tr.request_count());
  EXPECT_GT(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.95);
}

TEST(Failures, DnsKeepsSendingUntilDetection) {
  // With a long detection delay, RR-DNS keeps resolving to the dead node,
  // so roughly 1/N of the post-crash requests fail; with a fast detection
  // the losses are much smaller.
  const auto tr = workload();
  SimConfig slow = failing_config(4, 1, 0.1);
  slow.failure_detection_seconds = 60.0;  // effectively never within the run
  ClusterSimulation slow_sim(slow, tr, std::make_unique<policy::RoundRobinPolicy>());
  const auto rs = slow_sim.run();

  SimConfig fast = failing_config(4, 1, 0.1);
  fast.failure_detection_seconds = 0.05;
  ClusterSimulation fast_sim(fast, tr, std::make_unique<policy::RoundRobinPolicy>());
  const auto rf = fast_sim.run();

  EXPECT_GT(rs.failed, 2 * rf.failed);
}

TEST(Failures, SurvivorsAbsorbTheDeadNodesFiles) {
  // After detection, requests for files that lived on the dead node must
  // be re-homed (L2S grows their server sets elsewhere) — hit rates
  // recover instead of pinning at zero for that share of the content.
  const auto tr = workload(30000);
  ClusterSimulation sim(failing_config(4, 1, 0.05), tr,
                        std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_GT(static_cast<double>(r.completed) / static_cast<double>(tr.request_count()),
            0.95);
  EXPECT_GT(r.hit_rate, 0.7);  // the re-homed files miss once, then hit
}

// Every policy takes back a node that crashed and restarted. Node 3 fails
// and recovers while every other node is loaded: a policy that balances
// load (the traditional switch, LARD's front-end, the LARD dispatcher's
// switch and tables) sends the next request to the idle node 3, and the
// DNS rotations and the hash ring serve on it again within a few requests.
// Consistent hashing also gets the node's ring points back.
TEST(Failures, EveryPolicyChoosesARecoveredNodeAgain) {
  constexpr int kNodes = 8;
  constexpr int kRecovered = 3;
  for (const PolicyKind kind :
       {PolicyKind::kTraditional, PolicyKind::kLard, PolicyKind::kL2s, PolicyKind::kRoundRobin,
        PolicyKind::kLardDispatcher, PolicyKind::kConsistentHash}) {
    SCOPED_TRACE(policy_kind_name(kind));
    testing::PolicyFixture f(kNodes);
    const auto policy = make_policy(kind);
    policy->attach(f.ctx);
    std::uint64_t seq = 0;
    storage::FileId next_file = 0;
    const auto serve_fresh_file = [&] {
      const trace::Request r = testing::PolicyFixture::request_for(next_file++);
      const int served = policy->select_service_node(policy->entry_node(seq++, r), r);
      f.drain();
      return served;
    };
    // Load every node, in the policy's own view (two requests per node for
    // files no node holds yet) and in its open-connection count.
    for (int i = 0; i < 2 * kNodes; ++i) serve_fresh_file();
    for (int n = 0; n < kNodes; ++n) f.set_load(n, 5);

    f.nodes[kRecovered]->fail();
    policy->on_node_failed(kRecovered);
    f.nodes[kRecovered]->recover();
    policy->on_node_recovered(kRecovered);

    const bool balances_load = kind == PolicyKind::kTraditional || kind == PolicyKind::kLard ||
                               kind == PolicyKind::kLardDispatcher;
    if (balances_load) {
      EXPECT_EQ(serve_fresh_file(), kRecovered);
    } else {
      bool served_again = false;
      for (int i = 0; i < 64 && !served_again; ++i)
        served_again = serve_fresh_file() == kRecovered;
      EXPECT_TRUE(served_again);
    }
    if (kind == PolicyKind::kConsistentHash) {
      const auto& ring = dynamic_cast<const policy::ConsistentHashPolicy&>(*policy);
      EXPECT_EQ(ring.ring_points(), static_cast<std::size_t>(kNodes) * 128);
    }
  }
}

// After every node of the cluster fails, each DNS-fronted policy keeps
// handing out the last node to go down, so clients fail fast. The first
// node to recover then takes every entry, and L2S's rejoining node marks
// every other node dead in its fresh load view.
TEST(Failures, DnsRotationRecoversFromATotalOutage) {
  constexpr int kNodes = 8;
  constexpr int kRecovered = 5;
  constexpr int kChoices = 64;
  for (const PolicyKind kind :
       {PolicyKind::kL2s, PolicyKind::kRoundRobin, PolicyKind::kConsistentHash}) {
    SCOPED_TRACE(policy_kind_name(kind));
    testing::PolicyFixture f(kNodes);
    const auto policy = make_policy(kind);
    policy->attach(f.ctx);
    const trace::Request r = testing::PolicyFixture::request_for(0);
    for (int n = 0; n < kNodes; ++n) {
      f.nodes[static_cast<std::size_t>(n)]->fail();
      policy->on_node_failed(n);
    }
    int to_last_down = 0;
    for (std::uint64_t seq = 0; seq < kChoices; ++seq)
      to_last_down += policy->entry_node(seq, r) == kNodes - 1 ? 1 : 0;
    EXPECT_EQ(to_last_down, kChoices);

    f.nodes[kRecovered]->recover();
    policy->on_node_recovered(kRecovered);
    int to_recovered = 0;
    for (std::uint64_t seq = 0; seq < kChoices; ++seq)
      to_recovered += policy->entry_node(seq, r) == kRecovered ? 1 : 0;
    EXPECT_EQ(to_recovered, kChoices);

    if (kind == PolicyKind::kL2s) {
      const auto& l2s = dynamic_cast<const policy::L2sPolicy&>(*policy);
      for (int m = 0; m < kNodes; ++m) {
        if (m == kRecovered) continue;
        // Dead peers read as infinitely loaded; a live one starts at 0.
        EXPECT_GT(l2s.view_of(kRecovered, m), 1 << 20) << "node " << m;
      }
    }
  }
}

TEST(Failures, NoFailuresMeansNoFailedRequests) {
  const auto tr = workload(2000);
  SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 4 * kMiB;
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.completed, tr.request_count());
}

TEST(Failures, CrashPlanRunsAreDeterministic) {
  // A fault_plan crash is part of the deterministic event schedule: two
  // simulations built from the same config must replay event-for-event
  // (the property the golden-digest suite leans on under faults).
  const auto tr = workload();
  ClusterSimulation a(failing_config(8, 3, 0.2), tr, std::make_unique<policy::L2sPolicy>());
  ClusterSimulation b(failing_config(8, 3, 0.2), tr, std::make_unique<policy::L2sPolicy>());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.failed, rb.failed);
  EXPECT_EQ(ra.failed_retries_exhausted, rb.failed_retries_exhausted);
  EXPECT_EQ(ra.elapsed_seconds, rb.elapsed_seconds);
  EXPECT_EQ(ra.mean_response_ms, rb.mean_response_ms);
  EXPECT_EQ(a.scheduler().events_processed(), b.scheduler().events_processed());
}

TEST(Failures, FailureBucketsPartitionTheFailedCount) {
  const auto tr = workload();
  ClusterSimulation sim(failing_config(8, 3, 0.2), tr,
                        std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(r.failed, r.failed_deadline + r.failed_retries_exhausted + r.failed_rejected);
  // Fail-fast crashes with no retry budget land in the retries bucket.
  EXPECT_EQ(r.failed, r.failed_retries_exhausted);
}

TEST(Failures, GoodputTimelineMatchesTelemetrySeries) {
  // The AvailabilityTracker keeps the goodput timeline in
  // telemetry::BucketSeries, and SimTelemetry publishes those series as
  // "goodput.completed"/"goodput.failed". Under a crash plan
  // SimResult::goodput_rps and the published series must agree
  // bucket-for-bucket, and the bucket totals must account for every
  // outcome the scalar counters saw.
  const auto tr = workload();
  SimConfig cfg = failing_config(8, 3, 0.2);
  cfg.goodput_interval_seconds = 0.1;
  cfg.telemetry.enabled = true;
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  ASSERT_NE(r.telemetry, nullptr);
  ASSERT_FALSE(r.goodput_rps.empty());

  const auto* completed = r.telemetry->find("goodput.completed");
  ASSERT_NE(completed, nullptr);
  const double bucket_s = simtime_to_seconds(completed->series_interval);
  ASSERT_GT(bucket_s, 0.0);
  ASSERT_LE(completed->series_buckets.size(), r.goodput_rps.size());
  for (std::size_t i = 0; i < completed->series_buckets.size(); ++i) {
    EXPECT_DOUBLE_EQ(completed->series_buckets[i] / bucket_s, r.goodput_rps[i]) << i;
  }
  for (std::size_t i = completed->series_buckets.size(); i < r.goodput_rps.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.goodput_rps[i], 0.0) << i;
  }
  // Bucket totals account for every outcome the scalar counters saw.
  const double total_completed =
      std::accumulate(completed->series_buckets.begin(),
                      completed->series_buckets.end(), 0.0);
  EXPECT_DOUBLE_EQ(total_completed, static_cast<double>(r.completed));
  const auto* failed = r.telemetry->find("goodput.failed");
  ASSERT_NE(failed, nullptr);
  const double total_failed = std::accumulate(failed->series_buckets.begin(),
                                              failed->series_buckets.end(), 0.0);
  EXPECT_DOUBLE_EQ(total_failed, static_cast<double>(r.failed));
}

TEST(Failures, ConfigValidation) {
  const auto tr = workload(100);
  SimConfig bad;
  bad.nodes = 4;
  bad.fault_plan.crashes.push_back({9, 0.1});
  EXPECT_THROW(ClusterSimulation(bad, tr, std::make_unique<policy::L2sPolicy>()), Error);
  bad = SimConfig{};
  bad.nodes = 4;
  bad.fault_plan.crashes.push_back({1, -0.5});
  EXPECT_THROW(ClusterSimulation(bad, tr, std::make_unique<policy::L2sPolicy>()), Error);
}

}  // namespace
}  // namespace l2s::core
