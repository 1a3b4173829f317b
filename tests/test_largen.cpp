// Large-N sanity net (ctest -L largen): a 256-node cluster at heavy
// traffic, driven through the DES kernel, checked against the
// M/M/infinity ranked-servers asymptotics (Eschenfeldt, Gross & Pippenger;
// see PAPERS.md), a 256-node L2S cluster pinned through its cold-start
// broadcast storm, and L2S at 64 and 512 nodes holding queue entries in
// proportion to the nodes.
//
// The model: Poisson arrivals at rate lambda, each request dispatched to
// the LOWEST-indexed idle server (ordered hunting) and holding it for the
// network delivery latency plus an exponential service time. In heavy
// traffic with offered load a = lambda * E[holding] servers-worth of work,
// the busy-server count is asymptotically Poisson(a) — the M/G/infinity
// insensitivity result — so the idle-server count is N - Poisson(a), and
// ordered hunting concentrates the idleness in the highest ranks: server
// utilization is non-increasing in rank, near 1 at the low ranks and
// falling off around rank a. The tolerance bands below hold with large
// margin for the configured run length (they are sanity gates on the
// engine's large-N behaviour, not estimator-precision tests).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "l2sim/cluster/node.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/common/units.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/metrics.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/des/scheduler.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::des {
namespace {

struct RankedClusterResult {
  double mean_busy = 0.0;       ///< time-average busy-server count
  double var_busy = 0.0;        ///< sample variance of the busy count
  double drop_fraction = 0.0;   ///< arrivals finding every server busy
  std::vector<double> utilization;  ///< per-rank busy-time fraction
  std::uint64_t arrivals = 0;
};

/// Simulate the ranked-servers cluster on one scheduler. All randomness
/// comes from one sequential stream, consumed in event order.
RankedClusterResult run_ranked_cluster(int nodes, double lambda,
                                       double mean_service_s,
                                       double horizon_s, std::uint64_t seed) {
  const SimTime latency = 10'000;  // VIA minimum cross-node latency (10 us)
  const SimTime horizon = seconds_to_simtime(horizon_s);
  const SimTime sample_every = seconds_to_simtime(0.0005);

  Scheduler sched;
  Rng rng(seed);

  std::vector<bool> busy(static_cast<std::size_t>(nodes), false);
  std::vector<SimTime> busy_since(static_cast<std::size_t>(nodes), 0);
  std::vector<SimTime> busy_ns(static_cast<std::size_t>(nodes), 0);
  int busy_count = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::uint64_t samples = 0;

  // Periodic busy-count sampler.
  auto sample = [&](auto&& self) -> void {
    sum += busy_count;
    sum_sq += static_cast<double>(busy_count) * busy_count;
    ++samples;
    if (sched.now() + sample_every <= horizon)
      sched.after(sample_every, [&self] { self(self); });
  };

  // Poisson arrival source with ordered-hunt dispatch.
  auto arrive = [&](auto&& self) -> void {
    ++arrivals;
    int server = -1;
    for (int i = 0; i < nodes; ++i) {
      if (!busy[static_cast<std::size_t>(i)]) {
        server = i;
        break;
      }
    }
    if (server < 0) {
      ++drops;  // every server busy: heavy-traffic loss, must stay rare
    } else {
      busy[static_cast<std::size_t>(server)] = true;
      busy_since[static_cast<std::size_t>(server)] = sched.now();
      ++busy_count;
      const SimTime hold =
          latency + 1 +
          seconds_to_simtime(rng.next_exponential(1.0 / mean_service_s));
      sched.at(sched.now() + hold,
               [&busy, &busy_since, &busy_ns, &busy_count, server,
                release = sched.now() + hold] {
                 busy[static_cast<std::size_t>(server)] = false;
                 busy_ns[static_cast<std::size_t>(server)] +=
                     release - busy_since[static_cast<std::size_t>(server)];
                 --busy_count;
               });
    }
    const SimTime gap = 1 + seconds_to_simtime(rng.next_exponential(lambda));
    if (sched.now() + gap <= horizon)
      sched.after(gap, [&self] { self(self); });
  };

  sched.at(1, [&sample] { sample(sample); });
  sched.at(1, [&arrive] { arrive(arrive); });
  sched.run();

  RankedClusterResult r;
  r.arrivals = arrivals;
  r.drop_fraction =
      arrivals == 0 ? 0.0 : static_cast<double>(drops) / static_cast<double>(arrivals);
  r.mean_busy = sum / static_cast<double>(samples);
  r.var_busy = sum_sq / static_cast<double>(samples) - r.mean_busy * r.mean_busy;
  const double span = static_cast<double>(sched.now() - 1);
  for (int i = 0; i < nodes; ++i)
    r.utilization.push_back(static_cast<double>(busy_ns[static_cast<std::size_t>(i)]) /
                            span);
  return r;
}

TEST(LargeN, RankedServersMatchHeavyTrafficAsymptotics) {
  constexpr int kNodes = 256;
  constexpr double kLambda = 125'000.0;     // arrivals per second
  constexpr double kMeanService = 0.0016;   // 1.6 ms
  constexpr double kHorizon = 1.0;          // simulated seconds
  // Offered load in servers: lambda * (service + delivery latency).
  const double a = kLambda * (kMeanService + 10e-6);
  ASSERT_LT(a, kNodes * 0.85);  // heavy traffic, but below saturation

  const auto r = run_ranked_cluster(kNodes, kLambda, kMeanService, kHorizon,
                                    /*seed=*/42);

  // ~125k arrivals in the horizon; enough for tight means.
  EXPECT_GT(r.arrivals, 100'000u);

  // M/G/infinity insensitivity: busy-server count ~ Poisson(a).
  EXPECT_NEAR(r.mean_busy, a, 0.05 * a);
  // Poisson: variance == mean (wide band: samples are correlated).
  EXPECT_GT(r.var_busy / r.mean_busy, 0.6);
  EXPECT_LT(r.var_busy / r.mean_busy, 1.6);
  // Loss (all 256 busy) sits ~3.9 sigma out: must be rare.
  EXPECT_LT(r.drop_fraction, 1e-3);

  // Ordered hunting concentrates idleness in the high ranks: block-mean
  // utilization is strictly decreasing, ~1 at the bottom, and the drop-off
  // straddles rank a.
  constexpr int kBlock = 64;
  std::vector<double> block_util;
  for (int b = 0; b < kNodes / kBlock; ++b) {
    double s = 0.0;
    for (int i = b * kBlock; i < (b + 1) * kBlock; ++i)
      s += r.utilization[static_cast<std::size_t>(i)];
    block_util.push_back(s / kBlock);
  }
  for (std::size_t b = 1; b < block_util.size(); ++b)
    EXPECT_LT(block_util[b], block_util[b - 1]) << "block " << b;
  EXPECT_GT(block_util.front(), 0.95);
  EXPECT_LT(block_util.back(), 0.6);

  // The idle-server distribution: mean idle count == N - a.
  EXPECT_NEAR(kNodes - r.mean_busy, kNodes - a, 0.05 * a);
}

// L2S on 256 nodes over a 0.5% Calgary stream with 32 MiB caches and the
// CLI's set-decay window for that scale (K = 20 s x 0.005). Every node
// broadcasts its load and set changes to the 255 others, so the first
// milliseconds queue hundreds of thousands of VIA message jobs on the
// CPUs and NICs. The digest pins that storm event for event.
TEST(LargeN, L2sBroadcastStormMatchesRecordedDigest) {
  constexpr double kScale = 0.005;
  auto spec = trace::paper_trace_spec("calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * kScale);
  const auto tr = trace::generate(spec);
  core::SimConfig cfg;
  cfg.nodes = 256;
  cfg.node.cache_bytes = 32 * kMiB;
  core::ClusterSimulation sim(cfg, tr, core::make_policy(core::PolicyKind::kL2s, 20.0 * kScale));
  const auto r = sim.run();
  EXPECT_EQ(core::result_digest_hex(r), "2da1b1aaa2a4d212");
  EXPECT_GT(r.via_messages, 0u);
}

/// The queue entries one fault-free L2S run held at its peaks, and the VIA
/// message records still taken when it ended.
struct QueuePeaks {
  std::size_t entries = 0;  ///< over nodes: CPU + rx NIC + tx NIC peaks
  std::size_t records_in_use = 0;
};

QueuePeaks l2s_queue_peaks(const trace::Trace& tr, int nodes) {
  core::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 32 * kMiB;
  core::ClusterSimulation sim(cfg, tr, core::make_policy(core::PolicyKind::kL2s, 20.0 * 0.005));
  const auto r = sim.run();
  EXPECT_GT(r.via_messages, 0u);
  QueuePeaks peaks;
  for (int n = 0; n < nodes; ++n) {
    cluster::Node& node = sim.node(n);
    peaks.entries += node.cpu().peak_queue_entries() + node.nic().rx().peak_queue_entries() +
                     node.nic().tx().peak_queue_entries();
  }
  peaks.records_in_use = sim.via().message_records_in_use();
  return peaks;
}

// The same stream on 64 and on 512 nodes. Each broadcast sends N-1
// messages, so the cold-start storm queues O(N^2) jobs at the receivers;
// delivery runs must keep the queue entries that hold them O(N), the
// peaks summed over nodes growing by at most the 8x of the node count.
// With an entry per queued delivery the sum grew 18.4x (705 to 1,623
// entries a node).
TEST(LargeN, L2sQueueEntriesGrowLinearlyInNodes) {
  auto spec = trace::paper_trace_spec("calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * 0.005);
  const auto tr = trace::generate(spec);
  const QueuePeaks small = l2s_queue_peaks(tr, 64);
  const QueuePeaks large = l2s_queue_peaks(tr, 512);
  EXPECT_GT(small.entries, 0u);
  EXPECT_LE(large.entries, 8 * small.entries)
      << "64 nodes: " << small.entries << ", 512 nodes: " << large.entries;
  // Broadcasts take no message record, and every unicast returned its own.
  EXPECT_EQ(small.records_in_use, 0u);
  EXPECT_EQ(large.records_in_use, 0u);
}

}  // namespace
}  // namespace l2s::des
