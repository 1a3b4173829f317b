// Golden-digest regression net for the simulation engine.
//
// Every cell of a {policy × arrival mode × persistent mode × fault plan}
// matrix is run on a small synthetic trace and the *entire* SimResult is
// folded into a 64-bit digest (counts and doubles alike, bit-for-bit).
// The digests recorded below pin the engine's behaviour: any refactor
// that reorders a single event or RNG draw changes at least one digest.
//
// Regenerating (only legitimate after an *intentional* behaviour change):
//   L2SIM_GOLDEN_PRINT=1 ./build/tests/l2sim_tests
//       --gtest_filter='GoldenResults.*' 2>&1 | grep GOLDEN
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/obs/decision.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

// The digest itself lives in core (metrics.cpp) so the parallel-DES bench
// gates on exactly the fold this suite pins.
std::string digest_hex(const SimResult& r) { return result_digest_hex(r); }

trace::Trace golden_trace() {
  trace::SyntheticSpec spec;
  spec.name = "golden";
  spec.files = 250;
  spec.avg_file_kb = 8.0;
  spec.requests = 3000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 2024;
  return trace::generate(spec);
}

struct Cell {
  std::string name;
  SimConfig cfg;
  PolicyKind kind;
};

std::vector<Cell> matrix() {
  struct Policy {
    const char* tag;
    PolicyKind kind;
  };
  struct Persist {
    const char* tag;
    double rpc;
    PersistentMode mode;
  };
  const std::vector<Policy> policies = {{"trad", PolicyKind::kTraditional},
                                        {"lard", PolicyKind::kLard},
                                        {"l2s", PolicyKind::kL2s}};
  const std::vector<Persist> persists = {
      {"http10", 1.0, PersistentMode::kConnectionHandoff},
      {"handoff", 4.0, PersistentMode::kConnectionHandoff},
      {"backend", 4.0, PersistentMode::kBackendForwarding}};

  std::vector<Cell> cells;
  for (const auto& p : policies) {
    for (const bool open_loop : {false, true}) {
      for (const auto& ps : persists) {
        for (const bool crash : {false, true}) {
          Cell c;
          c.kind = p.kind;
          c.name = std::string(p.tag) + (open_loop ? "|open" : "|replay") + "|" +
                   ps.tag + (crash ? "|crash" : "|nofault");
          c.cfg.nodes = 4;
          c.cfg.node.cache_bytes = 2 * kMiB;
          if (open_loop) c.cfg.arrival.open_loop_rate = 1500.0;
          c.cfg.persistence.mean_requests_per_connection = ps.rpc;
          c.cfg.persistence.mode = ps.mode;
          if (crash) c.cfg.fault_plan.crashes.push_back({1, 0.15});
          cells.push_back(std::move(c));
        }
      }
    }
  }
  return cells;
}

// Recorded on the reference traces at the pre-decomposition engine; the
// composable-engine refactor must reproduce every digest bit-for-bit.
// Regenerated once when p50/p95/p99 moved to the log-linear histogram's
// interpolated quantiles: with the three quantile folds skipped, every
// digest was unchanged. Regenerated once more when a persistent
// connection's follow-on requests began to stamp their own decision time,
// and back-end fetches their service and storage times: the 24 handoff and
// backend cells moved, and with the four stage folds skipped every digest
// was unchanged.
const std::vector<std::pair<std::string, std::string>> kGolden = {
    {"trad|replay|http10|nofault", "242d049462076e98"},
    {"trad|replay|http10|crash", "9a21d22cd6d33117"},
    {"trad|replay|handoff|nofault", "79491c5f99a33595"},
    {"trad|replay|handoff|crash", "8650fb721f078826"},
    {"trad|replay|backend|nofault", "79491c5f99a33595"},
    {"trad|replay|backend|crash", "8650fb721f078826"},
    {"trad|open|http10|nofault", "eee47f072f603421"},
    {"trad|open|http10|crash", "bb24f0eafeb64e7e"},
    {"trad|open|handoff|nofault", "08ce69a5259dfe00"},
    {"trad|open|handoff|crash", "c4b6e4dea8648f76"},
    {"trad|open|backend|nofault", "08ce69a5259dfe00"},
    {"trad|open|backend|crash", "c4b6e4dea8648f76"},
    {"lard|replay|http10|nofault", "7590903a35c7e375"},
    {"lard|replay|http10|crash", "84702d54dc27e093"},
    {"lard|replay|handoff|nofault", "6068bcca141cfb48"},
    {"lard|replay|handoff|crash", "e291f947dcafb9fc"},
    {"lard|replay|backend|nofault", "d2d91d89da837f96"},
    {"lard|replay|backend|crash", "ed779f830162d9dd"},
    {"lard|open|http10|nofault", "c9ed7df7fe2ec2b0"},
    {"lard|open|http10|crash", "94fe406c7ab23721"},
    {"lard|open|handoff|nofault", "ffd96f736527120c"},
    {"lard|open|handoff|crash", "01028c8b77b363c9"},
    {"lard|open|backend|nofault", "ec7e222c99059d64"},
    {"lard|open|backend|crash", "461f289d1fe9ebed"},
    {"l2s|replay|http10|nofault", "0e1e1fd1240eb360"},
    {"l2s|replay|http10|crash", "8a4b6c1a5a087f58"},
    {"l2s|replay|handoff|nofault", "ce77d5de9aea2899"},
    {"l2s|replay|handoff|crash", "f8b6094ce2bbcd42"},
    {"l2s|replay|backend|nofault", "75ac799777cc4cf1"},
    {"l2s|replay|backend|crash", "360a5488772d464f"},
    {"l2s|open|http10|nofault", "c587dd15ff212fd6"},
    {"l2s|open|http10|crash", "6e42e3039fa3367c"},
    {"l2s|open|handoff|nofault", "7d46485c21085c42"},
    {"l2s|open|handoff|crash", "7c20013988d74dcd"},
    {"l2s|open|backend|nofault", "a593cbe63b212406"},
    {"l2s|open|backend|crash", "39bd6009e8effd9f"},
};

TEST(GoldenResults, MatrixMatchesRecordedDigests) {
  const auto tr = golden_trace();
  const auto cells = matrix();
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;

  std::vector<std::pair<std::string, std::string>> got;
  for (const auto& c : cells) {
    const auto r = run_once(tr, c.cfg, c.kind);
    got.emplace_back(c.name, digest_hex(r));
  }
  if (print) {
    for (const auto& [name, d] : got)
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", name.c_str(), d.c_str());
    return;
  }
  ASSERT_EQ(got.size(), kGolden.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kGolden[i].first);
    EXPECT_EQ(got[i].second, kGolden[i].second) << got[i].first;
  }
}

TEST(GoldenResults, DefaultOverloadConfigIsDigestInert) {
  // The overload-resilience layer (SimConfig::overload, arrival shapes,
  // churn) must be invisible when off: an explicitly default-constructed
  // OverloadConfig and stationary arrival shape reproduce every recorded
  // digest bit-for-bit. This is the contract that lets the resilience
  // subsystem ride inside the engine rather than beside it.
  ASSERT_FALSE(OverloadConfig{}.any_on());
  const auto tr = golden_trace();
  const auto cells = matrix();
  ASSERT_EQ(cells.size(), kGolden.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SimConfig cfg = cells[i].cfg;
    cfg.overload = OverloadConfig{};
    cfg.arrival.shape = ArrivalShape::kStationary;
    cfg.arrival.churn_period_seconds = 0.0;
    const auto r = run_once(tr, cfg, cells[i].kind);
    EXPECT_EQ(digest_hex(r), kGolden[i].second) << kGolden[i].first;
    EXPECT_EQ(r.failed_shed, 0u);
    EXPECT_EQ(r.hedge_attempts, 0u);
    EXPECT_EQ(r.brownout_transitions, 0u);
  }
}

TEST(GoldenResults, TelemetrySamplingDoesNotPerturbDigests) {
  // Telemetry is a passive observer: it schedules no events and draws no
  // random numbers, so enabling it — span capture, probe, registry and all
  // — must leave every digested quantity bit-for-bit unchanged. Exercised
  // on the densest cells (crash + goodput timeline, both arrival modes).
  const auto tr = golden_trace();
  for (const bool open_loop : {false, true}) {
    Cell c;
    c.kind = PolicyKind::kL2s;
    c.cfg.nodes = 4;
    c.cfg.node.cache_bytes = 2 * kMiB;
    if (open_loop) c.cfg.arrival.open_loop_rate = 1500.0;
    c.cfg.persistence.mean_requests_per_connection = 4.0;
    c.cfg.fault_plan.crashes.push_back({1, 0.15});
    c.cfg.goodput_interval_seconds = 0.1;
    const auto plain = run_once(tr, c.cfg, c.kind);

    SimConfig instrumented = c.cfg;
    instrumented.telemetry.enabled = true;
    instrumented.telemetry.span_sample_every = 1;  // record *every* span
    instrumented.telemetry.span_capacity = 1 << 14;
    const auto traced = run_once(tr, instrumented, c.kind);

    EXPECT_EQ(digest_hex(plain), digest_hex(traced))
        << (open_loop ? "open" : "replay");
    ASSERT_NE(traced.telemetry, nullptr);
    EXPECT_GT(traced.telemetry->spans.size(), 0u);
    EXPECT_EQ(plain.telemetry, nullptr);
  }
}

TEST(GoldenResults, FlightRecorderDoesNotPerturbDigests) {
  // The flight recorder is the same kind of passive tap as telemetry: it
  // is a sink on the lifecycle event stream, schedules zero events and
  // draws no randomness. Turning it on (warm-up included, generous ring) must
  // reproduce every one of the 36 pinned digests bit-for-bit — the
  // recorder-off bit-identity contract of the observability subsystem.
  // (SimResult::decisions is a shared_ptr deliberately excluded from
  // result_digest, like result.telemetry.)
  const auto tr = golden_trace();
  const auto cells = matrix();
  ASSERT_EQ(cells.size(), kGolden.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SimConfig cfg = cells[i].cfg;
    cfg.obs.enabled = true;
    cfg.obs.capacity = 0;  // unbounded: retention must not matter either
    const auto r = run_once(tr, cfg, cells[i].kind);
    EXPECT_EQ(digest_hex(r), kGolden[i].second) << kGolden[i].first;
    ASSERT_NE(r.decisions, nullptr) << kGolden[i].first;
    EXPECT_GT(r.decisions->recorded, 0u) << kGolden[i].first;
  }
}

// The matrix above runs 4 nodes, where a server set rarely holds more than
// one member. These cells pin the policies where sets replicate across
// many nodes: L2S on 64 nodes with a crash and a recovery (set growth,
// shrink, and the recovered node's blank replica), and LARD on 32 nodes,
// both on a 1% Calgary stream. Recorded while each replica still held its
// own copy of every member list, before they became shared, and
// regenerated with the quantile change above.
struct LargeCell {
  std::string name;
  PolicyKind kind;
  int nodes;
  std::string digest;
};

const std::vector<LargeCell> kLargeGolden = {
    {"l2s|calgary|64|crash-recover", PolicyKind::kL2s, 64, "53f5330726941412"},
    {"lard|calgary|32", PolicyKind::kLard, 32, "6ba812686fd735f8"},
};

TEST(GoldenResults, LargeClustersMatchRecordedDigests) {
  constexpr double kScale = 0.01;
  auto spec = trace::paper_trace_spec("calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * kScale);
  const auto tr = trace::generate(spec);
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;

  for (const auto& c : kLargeGolden) {
    SimConfig cfg;
    cfg.nodes = c.nodes;
    if (c.kind == PolicyKind::kL2s) {
      cfg.fault_plan.crashes.push_back({7, 0.2});
      cfg.fault_plan.recoveries.push_back({7, 0.4});
    }
    // The CLI's set-decay window K for a scaled trace.
    ClusterSimulation sim(cfg, tr, make_policy(c.kind, 20.0 * kScale));
    const auto r = sim.run();
    if (print) {
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", c.name.c_str(), digest_hex(r).c_str());
      continue;
    }
    EXPECT_EQ(digest_hex(r), c.digest) << c.name;
    // The cell must exercise what it is here to pin.
    const auto& counters = sim.policy().counters();
    EXPECT_GT(counters.set_grow, 0u) << c.name;
    EXPECT_GT(counters.set_shrink, 0u) << c.name;
    if (c.kind == PolicyKind::kL2s) {
      EXPECT_GT(r.time_to_recover_ms, 0.0) << c.name;
    }
  }
}

// L2S broadcasts (load updates, set changes, heartbeats) through lossy,
// duplicating and delaying links, plus a crash and a recovery, on 32 nodes
// of a 1% Calgary stream with the set-decay window K = 0.2 s. Each fault
// draw is taken as a message leaves the sender's CPU, so these digests pin
// the order of the draws and what each drawn fault does to the message.
// Recorded before broadcasts became one queue entry per sender resource.
TEST(GoldenResults, BroadcastsUnderMessageFaultsMatchRecordedDigests) {
  constexpr double kScale = 0.01;
  auto spec = trace::paper_trace_spec("calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * kScale);
  const auto tr = trace::generate(spec);
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;

  struct FaultCell {
    std::string name;
    net::TopologyKind topology;
    bool heartbeats;
    std::string digest;
  };
  const std::vector<FaultCell> cells = {
      {"single|fixed-delay", net::TopologyKind::kSingleSwitch, false, "03f2c304fbb83142"},
      {"single|heartbeats", net::TopologyKind::kSingleSwitch, true, "8b580327b587ed20"},
      {"rack4|fixed-delay", net::TopologyKind::kRackAware, false, "699c538445a13a32"},
      {"rack4|heartbeats", net::TopologyKind::kRackAware, true, "5eee073b8936ada1"},
  };
  for (const auto& c : cells) {
    SimConfig cfg;
    cfg.nodes = 32;
    cfg.topology.kind = c.topology;
    cfg.topology.racks = 4;
    fault::MessageFault lossy;
    lossy.loss_prob = 0.02;
    lossy.extra_delay_seconds = 0.5e-3;
    lossy.duplicate_prob = 0.05;
    cfg.fault_plan.message_faults.push_back(lossy);
    cfg.fault_plan.crashes.push_back({7, 0.2});
    cfg.fault_plan.recoveries.push_back({7, 0.4});
    cfg.retry.max_retries = 2;
    cfg.retry.attempt_timeout_seconds = 0.1;
    cfg.retry.deadline_seconds = 0.5;
    cfg.detection.heartbeats = c.heartbeats;
    cfg.detection.period_seconds = 0.02;
    ClusterSimulation sim(cfg, tr, make_policy(PolicyKind::kL2s, 0.2));
    const auto r = sim.run();
    if (print) {
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", c.name.c_str(), digest_hex(r).c_str());
      continue;
    }
    EXPECT_EQ(digest_hex(r), c.digest) << c.name;
    // Every kind of message fault must have struck.
    EXPECT_GT(r.via_dropped, 0u) << c.name;
    EXPECT_GT(r.via_duplicated, 0u) << c.name;
    EXPECT_GT(r.via_delayed, 0u) << c.name;
  }
}

TEST(GoldenResults, RunParallelIsBitIdenticalToSerial) {
  const auto tr = golden_trace();
  const auto cells = matrix();

  std::vector<SimJob> jobs;
  for (const auto& c : cells) {
    SimJob j;
    j.trace = &tr;
    j.sim = c.cfg;
    j.kind = c.kind;
    jobs.push_back(std::move(j));
  }
  const auto parallel = run_parallel(jobs);
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto serial = run_once(tr, cells[i].cfg, cells[i].kind);
    EXPECT_EQ(digest_hex(serial), digest_hex(parallel[i])) << cells[i].name;
  }
}

}  // namespace
}  // namespace l2s::core
