// Persistent (HTTP/1.1-style) connection support: multiple requests per
// connection, with either connection hand-off or back-end request
// forwarding when the content lives elsewhere.
#include <gtest/gtest.h>

#include <string>

#include "l2sim/core/experiment.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/traditional.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace workload(std::uint64_t requests = 4000) {
  trace::SyntheticSpec spec;
  spec.name = "phttp";
  spec.files = 300;
  spec.avg_file_kb = 12.0;
  spec.requests = requests;
  spec.avg_request_kb = 10.0;
  spec.alpha = 0.9;
  spec.seed = 21;
  return trace::generate(spec);
}

SimConfig persistent_config(int nodes, double mean_rpc, PersistentMode mode) {
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 2 * kMiB;
  cfg.persistence.mean_requests_per_connection = mean_rpc;
  cfg.persistence.mode = mode;
  return cfg;
}

TEST(Persistent, AllRequestsStillComplete) {
  const auto tr = workload();
  for (const auto mode : {PersistentMode::kConnectionHandoff, PersistentMode::kBackendForwarding}) {
    for (const auto kind : all_policies()) {
      ClusterSimulation sim(persistent_config(4, 4.0, mode), tr, make_policy(kind));
      const auto r = sim.run();
      EXPECT_EQ(r.completed, tr.request_count()) << policy_kind_name(kind);
      for (int n = 0; n < 4; ++n) EXPECT_EQ(sim.node(n).open_connections(), 0);
    }
  }
}

TEST(Persistent, ConnectionCountMatchesMeanRoughly) {
  const auto tr = workload(8000);
  const auto cfg = persistent_config(4, 4.0, PersistentMode::kConnectionHandoff);
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_LT(r.connections, r.completed);
  const double mean = static_cast<double>(r.completed) / static_cast<double>(r.connections);
  EXPECT_NEAR(mean, 4.0, 1.0);
}

TEST(Persistent, Http10IsOneRequestPerConnection) {
  const auto tr = workload();
  const auto cfg = persistent_config(4, 1.0, PersistentMode::kConnectionHandoff);
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_EQ(r.connections, r.completed);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.remote_fetches, 0u);
}

TEST(Persistent, HandoffModeMigratesNeverFetches) {
  const auto tr = workload();
  const auto cfg = persistent_config(4, 6.0, PersistentMode::kConnectionHandoff);
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_GT(r.migrations, 0u);
  EXPECT_EQ(r.remote_fetches, 0u);
}

TEST(Persistent, ForwardingModeFetchesNeverMigrates) {
  const auto tr = workload();
  const auto cfg = persistent_config(4, 6.0, PersistentMode::kBackendForwarding);
  ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  EXPECT_GT(r.remote_fetches, 0u);
  EXPECT_EQ(r.migrations, 0u);
}

TEST(Persistent, IidWorkloadsMakeStickyConnectionsMigrate) {
  // Under IID request streams, consecutive requests of a connection are
  // unrelated, so "stay where the connection is" loses to per-request
  // placement: most subsequent requests need a migration and the
  // forwarded fraction *rises* with connection length. (With temporally
  // correlated workloads the effect reverses — see `l2sim study
  // persistent`.) Either way, hit rates must stay locality-conscious.
  const auto tr = workload(8000);
  const auto r1 =
      [&] {
        ClusterSimulation sim(persistent_config(4, 1.0, PersistentMode::kConnectionHandoff),
                              tr, std::make_unique<policy::L2sPolicy>());
        return sim.run();
      }();
  const auto r8 =
      [&] {
        ClusterSimulation sim(persistent_config(4, 8.0, PersistentMode::kConnectionHandoff),
                              tr, std::make_unique<policy::L2sPolicy>());
        return sim.run();
      }();
  EXPECT_GT(r8.forwarded_fraction, r1.forwarded_fraction);
  EXPECT_GT(r8.migrations, 0u);
  EXPECT_GT(r8.hit_rate, 0.8);
}

TEST(Persistent, TraditionalStaysPutAcrossRequests) {
  // The traditional policy returns the current node for every subsequent
  // request (select falls back to entry), so persistent connections never
  // migrate or fetch.
  const auto tr = workload();
  for (const auto mode :
       {PersistentMode::kConnectionHandoff, PersistentMode::kBackendForwarding}) {
    ClusterSimulation sim(persistent_config(4, 5.0, mode), tr,
                          std::make_unique<policy::TraditionalPolicy>());
    const auto r = sim.run();
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_EQ(r.remote_fetches, 0u);
    EXPECT_EQ(r.forwarded, 0u);
  }
}

TEST(Persistent, LardKeepsWorkingWithPersistentConnections) {
  const auto tr = workload();
  for (const auto mode :
       {PersistentMode::kConnectionHandoff, PersistentMode::kBackendForwarding}) {
    ClusterSimulation sim(persistent_config(4, 4.0, mode), tr,
                          std::make_unique<policy::LardPolicy>());
    const auto r = sim.run();
    EXPECT_EQ(r.completed, tr.request_count());
    EXPECT_GT(r.throughput_rps, 0.0);
  }
}

TEST(Persistent, DeterministicAcrossRuns) {
  const auto tr = workload();
  const auto cfg = persistent_config(4, 4.0, PersistentMode::kConnectionHandoff);
  ClusterSimulation a(cfg, tr, std::make_unique<policy::L2sPolicy>());
  ClusterSimulation b(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.connections, rb.connections);
  EXPECT_EQ(ra.migrations, rb.migrations);
  EXPECT_DOUBLE_EQ(ra.throughput_rps, rb.throughput_rps);
}

// Every request of a persistent connection passes its four stages in order
// (entry, hand-off, storage, reply), whether it stays put, moves with a
// hand-off or is fetched from a back end: a follow-on request stamps its
// own decision, and a back-end fetch its owner's lookup and disk read, so
// no stage reuses a timestamp of the connection's first request.
TEST(Persistent, EverySpanHasFourNonNegativeStages) {
  const auto tr = workload();
  for (const auto mode :
       {PersistentMode::kConnectionHandoff, PersistentMode::kBackendForwarding}) {
    for (const auto kind : {PolicyKind::kTraditional, PolicyKind::kLard, PolicyKind::kL2s}) {
      SCOPED_TRACE(std::string(policy_kind_name(kind)) +
                   (mode == PersistentMode::kBackendForwarding ? " backend" : " handoff"));
      SimConfig cfg = persistent_config(4, 4.0, mode);
      cfg.telemetry.enabled = true;
      cfg.telemetry.span_sample_every = 1;
      cfg.telemetry.span_capacity = 1 << 14;
      const auto r = run_once(tr, cfg, kind);
      ASSERT_EQ(r.failed, 0u);
      ASSERT_NE(r.telemetry, nullptr);
      ASSERT_EQ(r.telemetry->spans.size(), r.completed);
      std::size_t negative = 0;
      for (const auto& s : r.telemetry->spans) {
        if (s.entry_ms() < 0.0 || s.forward_ms() < 0.0 || s.disk_ms() < 0.0 ||
            s.reply_ms() < 0.0)
          ++negative;
      }
      EXPECT_EQ(negative, 0u);
      EXPECT_GE(r.stage_entry_ms, 0.0);
      EXPECT_GE(r.stage_forward_ms, 0.0);
      EXPECT_GE(r.stage_disk_ms, 0.0);
      EXPECT_GE(r.stage_reply_ms, 0.0);
    }
  }
}

TEST(Persistent, ConfigValidation) {
  const auto tr = workload(100);
  SimConfig bad = persistent_config(2, 0.5, PersistentMode::kConnectionHandoff);
  EXPECT_THROW(ClusterSimulation(bad, tr, std::make_unique<policy::L2sPolicy>()), Error);
}

// A miss read that outlives its attempt (hedged or timed out) still fills
// the cache when the disk finishes, and by then a persistent connection may
// carry its next request. The fill must be the file that was read, at that
// file's size: every node's used() then equals the summed true sizes of the
// files it holds.
TEST(Persistent, SupersededReadsFillTheFileTheyRead) {
  auto spec = trace::paper_trace_spec("clarknet");
  spec.requests = 60000;
  const auto tr = trace::generate(spec);
  SimConfig hedged = persistent_config(8, 4.0, PersistentMode::kConnectionHandoff);
  hedged.node.cache_bytes = 8 * kMiB;
  hedged.overload.hedge_delay_seconds = 0.02;
  SimConfig timed_out = hedged;
  timed_out.overload.hedge_delay_seconds = 0.0;
  timed_out.retry.attempt_timeout_seconds = 0.05;
  timed_out.retry.max_retries = 2;
  for (const SimConfig& cfg : {hedged, timed_out}) {
    ClusterSimulation sim(cfg, tr, make_policy(PolicyKind::kTraditional));
    const auto r = sim.run();
    EXPECT_GT(r.hedge_attempts + r.retry_attempts, 0u);
    for (int n = 0; n < cfg.nodes; ++n) {
      const cache::FileCache& c = sim.node(n).file_cache();
      Bytes resident = 0;
      for (trace::FileId f = 0; f < tr.files().count(); ++f)
        if (c.contains(f)) resident += tr.files().size_of(f);
      EXPECT_EQ(c.used(), resident) << "node " << n;
    }
  }
}

}  // namespace
}  // namespace l2s::core
