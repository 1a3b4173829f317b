// The lifecycle event stream. Every statistic a run reports is a fold over
// the engine's decision records, so this suite pins the stream itself and
// the exports built from it on cells that reach every record kind, and
// checks that SimResult's counters count exactly those records.
//
// Regenerating the stream and Chrome-trace digests (only after an
// intentional behaviour change):
//   L2SIM_GOLDEN_PRINT=1 ./build/tests/l2sim_tests
//       --gtest_filter='GoldenResults.ObserverStreams*:GoldenResults.ChromeTraces*'
//       2>&1 | grep GOLDEN
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "fnv.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/metrics.hpp"
#include "l2sim/obs/decision.hpp"
#include "l2sim/telemetry/exporters.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace stream_trace() {
  trace::SyntheticSpec spec;
  spec.name = "stream";
  spec.files = 250;
  spec.avg_file_kb = 8.0;
  spec.requests = 3000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 2024;
  return trace::generate(spec);
}

struct StreamCell {
  std::string name;
  SimConfig cfg;
  PolicyKind kind;
};

/// Four cells that together emit every record kind: a crash and recovery
/// seen by the heartbeat detector with retries, a deadline and connection
/// hand-off; LARD with back-end forwarding on a rack topology; an overload
/// cell with shedding, brownout, a retry budget and hedging; and an
/// open-loop cell whose small admission buffers reject arrivals.
std::vector<StreamCell> stream_cells() {
  SimConfig base;
  base.nodes = 4;
  base.node.cache_bytes = 2 * kMiB;
  base.goodput_interval_seconds = 0.1;
  base.obs.enabled = true;
  base.obs.capacity = 0;
  base.telemetry.enabled = true;
  base.telemetry.span_sample_every = 1;
  base.telemetry.span_capacity = 1 << 16;

  std::vector<StreamCell> cells;
  {
    StreamCell c{"l2s|handoff|crash-recover", base, PolicyKind::kL2s};
    c.cfg.arrival.open_loop_rate = 1500.0;
    c.cfg.persistence.mean_requests_per_connection = 4.0;
    c.cfg.persistence.mode = PersistentMode::kConnectionHandoff;
    c.cfg.fault_plan.crashes.push_back({1, 0.15});
    c.cfg.fault_plan.recoveries.push_back({1, 0.3});
    c.cfg.detection.heartbeats = true;
    c.cfg.detection.period_seconds = 0.02;
    c.cfg.retry.max_retries = 2;
    c.cfg.retry.attempt_timeout_seconds = 0.1;
    c.cfg.retry.deadline_seconds = 0.5;
    cells.push_back(std::move(c));
  }
  {
    StreamCell c{"lard|backend|rack", base, PolicyKind::kLard};
    c.cfg.nodes = 8;
    c.cfg.topology.kind = net::TopologyKind::kRackAware;
    c.cfg.topology.racks = 2;
    c.cfg.arrival.open_loop_rate = 2000.0;
    c.cfg.persistence.mean_requests_per_connection = 4.0;
    c.cfg.persistence.mode = PersistentMode::kBackendForwarding;
    c.cfg.fault_plan.crashes.push_back({3, 0.1});
    cells.push_back(std::move(c));
  }
  {
    StreamCell c{"l2s|overload", base, PolicyKind::kL2s};
    c.cfg.arrival.open_loop_rate = 3000.0;
    c.cfg.persistence.mean_requests_per_connection = 2.0;
    c.cfg.overload.shedder = ShedderKind::kStaticCap;
    c.cfg.overload.static_cap = 24;
    c.cfg.overload.brownout = true;
    c.cfg.overload.retry_budget_ratio = 0.05;
    c.cfg.overload.retry_budget_burst = 4.0;
    c.cfg.overload.hedge_delay_seconds = 0.02;
    c.cfg.retry.max_retries = 2;
    c.cfg.retry.attempt_timeout_seconds = 0.05;
    c.cfg.fault_plan.crashes.push_back({1, 0.15});
    cells.push_back(std::move(c));
  }
  {
    StreamCell c{"trad|reject", base, PolicyKind::kTraditional};
    c.cfg.arrival.open_loop_rate = 6000.0;
    c.cfg.admission.buffer_slots_per_node = 4;
    cells.push_back(std::move(c));
  }
  return cells;
}

const std::vector<std::pair<std::string, std::string>> kStreamGolden = {
    {"l2s|handoff|crash-recover", "f29228362a5638c2"},
    {"lard|backend|rack", "df56b69bfb37d4a4"},
    {"l2s|overload", "6c07a442fdb2cb29"},
    {"trad|reject", "f3f5743769980ea4"},
};

// Pinned before the lifecycle hooks were folded into the decision stream:
// the result digest, the records of the thirteen original kinds (compared
// through their integer values) and the metrics, timeseries and spans
// exports must stay byte for byte what the per-hook observers produced.
// Regenerated once when the response quantiles moved to the log-linear
// histogram; with the quantiles masked out of the result digest and the
// metrics CSV, every pin was unchanged. The two persistent-connection cells
// with timeouts or hedges moved once more when a superseded miss read began
// to fill the cache with the file it read, not the connection's next one.
// Three cells moved once more when CPU busy time began to count the elapsed
// part of the job in service, which moves per-window node.cpu_utilization
// in the timeseries export; with the timeseries left out of the hash, every
// cell's digest was unchanged. The three persistent-connection cells moved
// once more when follow-on requests began to stamp their own decision time
// and back-end fetches their service and storage times; with the four stage
// folds of the result digest and the spans export's four stage columns
// masked, every cell's digest was unchanged.
TEST(GoldenResults, ObserverStreamsMatchRecordedDigests) {
  const auto tr = stream_trace();
  const auto cells = stream_cells();
  ASSERT_EQ(cells.size(), kStreamGolden.size());
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;
  constexpr int kLastOriginalKind = static_cast<int>(obs::DecisionKind::kNodeReadmitted);

  std::uint64_t kinds_seen = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    const auto r = run_once(tr, c.cfg, c.kind);
    ASSERT_NE(r.decisions, nullptr) << c.name;
    ASSERT_NE(r.telemetry, nullptr) << c.name;
    testing::Fnv h;
    h.u64(result_digest(r));
    for (const auto& rec : r.decisions->records) {
      const int kind = static_cast<int>(rec.kind);
      if (kind > kLastOriginalKind) continue;
      kinds_seen |= 1ULL << kind;
      h.u64(static_cast<std::uint64_t>(rec.time));
      h.u64(rec.request);
      h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.node)));
      h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(rec.target)));
      h.u64(static_cast<std::uint64_t>(rec.detail));
      h.u64(rec.attempt);
      h.u64(static_cast<std::uint64_t>(kind));
      h.u64(static_cast<std::uint64_t>(static_cast<int>(rec.cause)));
      h.u64(rec.pass);
    }
    for (const auto write : {telemetry::write_metrics_csv, telemetry::write_timeseries_csv,
                             telemetry::write_spans_csv}) {
      std::ostringstream out;
      write(out, *r.telemetry);
      h.text(out.str());
    }
    if (print) {
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", c.name.c_str(), h.hex().c_str());
      continue;
    }
    EXPECT_EQ(c.name, kStreamGolden[i].first);
    EXPECT_EQ(h.hex(), kStreamGolden[i].second) << c.name;
  }
  // Together the cells reach every original kind.
  EXPECT_EQ(kinds_seen, (1ULL << (kLastOriginalKind + 1)) - 1);
}

// Recorded while the probe still kept one sample series per metric and
// node, before its samples became one table.
const std::vector<std::pair<std::string, std::string>> kTraceGolden = {
    {"l2s|handoff|crash-recover", "2c5ec3d8fed0c61b"},
    {"lard|backend|rack", "e5bf16eeb7269c43"},
    {"l2s|overload", "739f67b092485c58"},
    {"trad|reject", "567b65f5e3e6892e"},
};

// The Chrome trace of each stream cell: per-node metadata, span slices,
// failure and fault instants and the timeline probe's counter tracks.
TEST(GoldenResults, ChromeTracesMatchRecordedDigests) {
  const auto tr = stream_trace();
  const auto cells = stream_cells();
  ASSERT_EQ(cells.size(), kTraceGolden.size());
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    const auto r = run_once(tr, c.cfg, c.kind);
    ASSERT_NE(r.telemetry, nullptr) << c.name;
    std::ostringstream out;
    telemetry::write_chrome_trace(out, *r.telemetry);
    EXPECT_NE(out.str().find("\"ph\":\"C\""), std::string::npos) << c.name;
    testing::Fnv h;
    h.text(out.str());
    if (print) {
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", c.name.c_str(), h.hex().c_str());
      continue;
    }
    EXPECT_EQ(c.name, kTraceGolden[i].first);
    EXPECT_EQ(h.hex(), kTraceGolden[i].second) << c.name;
  }
}

// Every SimResult counter is a count of measured-pass records: the stream
// carries each lifecycle event exactly once.
TEST(Lifecycle, SimResultIsAFoldOfTheEventStream) {
  const auto tr = stream_trace();
  std::uint64_t kinds_seen = 0;
  for (const auto& c : stream_cells()) {
    const auto r = run_once(tr, c.cfg, c.kind);
    ASSERT_NE(r.decisions, nullptr) << c.name;
    std::vector<std::uint64_t> n(static_cast<std::size_t>(obs::DecisionKind::kClose) + 1, 0);
    std::uint64_t forward_dispatches = 0;
    std::uint64_t deadline = 0;
    std::uint64_t exhausted = 0;
    for (const auto& rec : r.decisions->records) {
      if (rec.pass != 1) continue;
      kinds_seen |= 1ULL << static_cast<int>(rec.kind);
      ++n[static_cast<std::size_t>(rec.kind)];
      if (rec.kind == obs::DecisionKind::kDispatch &&
          rec.cause == obs::DecisionCause::kForwardService)
        ++forward_dispatches;
      if (rec.kind == obs::DecisionKind::kFailure)
        (rec.cause == obs::DecisionCause::kDeadlineExpired ? deadline : exhausted)++;
    }
    const auto count = [&](obs::DecisionKind k) { return n[static_cast<std::size_t>(k)]; };
    EXPECT_EQ(r.completed, count(obs::DecisionKind::kComplete)) << c.name;
    EXPECT_EQ(r.connections, count(obs::DecisionKind::kClose)) << c.name;
    EXPECT_EQ(r.failed_deadline, deadline) << c.name;
    EXPECT_EQ(r.failed_retries_exhausted, exhausted) << c.name;
    EXPECT_EQ(r.failed_rejected, count(obs::DecisionKind::kReject)) << c.name;
    EXPECT_EQ(r.failed_shed, count(obs::DecisionKind::kShed)) << c.name;
    EXPECT_EQ(r.retry_attempts, count(obs::DecisionKind::kRetry)) << c.name;
    EXPECT_EQ(r.hedge_attempts, count(obs::DecisionKind::kHedge)) << c.name;
    EXPECT_EQ(r.brownout_transitions, count(obs::DecisionKind::kBrownout)) << c.name;
    EXPECT_EQ(r.migrations, count(obs::DecisionKind::kMigrate)) << c.name;
    EXPECT_EQ(r.remote_fetches, count(obs::DecisionKind::kRemoteFetch)) << c.name;
    EXPECT_EQ(r.forwarded, forward_dispatches + count(obs::DecisionKind::kMigrate) +
                               count(obs::DecisionKind::kRemoteFetch))
        << c.name;
  }
  // The measured passes reach every kind, the three newest included.
  EXPECT_EQ(kinds_seen, (1ULL << (static_cast<int>(obs::DecisionKind::kClose) + 1)) - 1);
}

}  // namespace
}  // namespace l2s::core
