// Fault scenario sweep — the robustness story in numbers.
//
// Crash-only, crash+recover (fixed-delay and heartbeat detection),
// fail-slow and 1%/5% VIA message loss, each run under traditional, LARD,
// LARD with warm-spare front-end failover, and L2S on an 8-node cluster.
// Emits BENCH_fault.json (schema: docs/bench_fault.md) and enforces the
// acceptance gates:
//
//   (a) L2S degrades proportionally under a crash while LARD without
//       failover loses the trace tail when its front-end dies;
//   (b) LARD with failover loses only the detection window: it serves the
//       vast majority of the trace and detects within the configured
//       timeout;
//   (c) all three policies complete >= 99% of requests at 1% message loss
//       once client retries are enabled;
//   plus a bit-reproducibility check (same seed, same numbers).
//
// Exits non-zero if any gate fails, so CI can run it as a regression test.
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "gate_report.hpp"
#include "l2sim/l2sim.hpp"

using namespace l2s;

namespace {

struct Row {
  std::string scenario;
  std::string policy;
  core::SimResult r;
  double served = 0.0;
};

struct PolicyDef {
  std::string name;
  std::function<std::unique_ptr<policy::Policy>()> make;
};

struct Scenario {
  std::string name;
  std::function<void(core::SimConfig&)> apply;
};

std::string json_escape_free(const std::string& s) { return s; }  // names are plain

void json_row(std::ostream& out, const Row& row, bool last) {
  const auto& r = row.r;
  out << "    {\"scenario\": \"" << json_escape_free(row.scenario) << "\", \"policy\": \""
      << row.policy << "\",\n"
      << "     \"completed\": " << r.completed << ", \"failed\": " << r.failed
      << ", \"failed_deadline\": " << r.failed_deadline
      << ", \"failed_retries_exhausted\": " << r.failed_retries_exhausted
      << ", \"failed_rejected\": " << r.failed_rejected << ",\n"
      << "     \"served_fraction\": " << format_double(row.served, 6)
      << ", \"throughput_rps\": " << format_double(r.throughput_rps, 1)
      << ", \"elapsed_seconds\": " << format_double(r.elapsed_seconds, 6) << ",\n"
      << "     \"completed_after_retry\": " << r.completed_after_retry
      << ", \"retry_attempts\": " << r.retry_attempts
      << ", \"retry_amplification\": " << format_double(r.retry_amplification, 4) << ",\n"
      << "     \"via_dropped\": " << r.via_dropped
      << ", \"via_duplicated\": " << r.via_duplicated
      << ", \"via_delayed\": " << r.via_delayed << ", \"heartbeats\": " << r.heartbeats
      << ",\n"
      << "     \"detection_latency_ms\": " << format_double(r.detection_latency_ms, 3)
      << ", \"time_to_recover_ms\": " << format_double(r.time_to_recover_ms, 3) << ",\n"
      << "     \"goodput_interval_seconds\": "
      << format_double(r.goodput_interval_seconds, 4) << ", \"goodput_rps\": [";
  for (std::size_t i = 0; i < r.goodput_rps.size(); ++i) {
    if (i > 0) out << ", ";
    out << format_double(r.goodput_rps[i], 1);
  }
  out << "]}";
  if (!last) out << ",";
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fault.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  const double scale = bench_scale();
  const double shrink = 20.0 * scale;
  const int nodes = 8;
  const double detection_s = 0.1;

  std::cout << "Fault scenario sweep (synthetic Calgary, " << nodes
            << " nodes, L2SIM_SCALE=" << scale << ")\n\n";

  auto spec = trace::paper_trace_spec("Calgary");
  spec.requests = static_cast<std::uint64_t>(static_cast<double>(spec.requests) * scale);
  const trace::Trace tr = trace::generate(spec);
  const auto total = static_cast<double>(tr.request_count());

  core::SimConfig base;
  base.nodes = nodes;
  base.node.cache_bytes = 32 * kMiB;
  base.failure_detection_seconds = detection_s;

  // Where "40% into the run" is, in seconds, for the crash schedules.
  const auto baseline = core::run_once(tr, base, core::PolicyKind::kL2s, shrink);
  const double crash_at = baseline.elapsed_seconds * 0.4;
  const double recover_at = baseline.elapsed_seconds * 0.7;
  std::cout << "baseline L2S: " << format_double(baseline.throughput_rps, 0)
            << " req/s over " << format_double(baseline.elapsed_seconds, 2)
            << " s; crash at t=" << format_double(crash_at, 2) << " s, restart at t="
            << format_double(recover_at, 2) << " s\n\n";
  const double goodput_interval = baseline.elapsed_seconds / 16.0;

  // Node 0 dies in every crash scenario: for LARD that is the front-end
  // (the paper's single point of failure); for the others an ordinary node.
  const std::vector<Scenario> scenarios = {
      {"crash",
       [&](core::SimConfig& cfg) { cfg.fault_plan.crashes.push_back({0, crash_at}); }},
      {"crash_recover",
       [&](core::SimConfig& cfg) {
         cfg.fault_plan.crashes.push_back({0, crash_at});
         cfg.fault_plan.recoveries.push_back({0, recover_at});
       }},
      {"crash_recover_heartbeat",
       [&](core::SimConfig& cfg) {
         cfg.fault_plan.crashes.push_back({0, crash_at});
         cfg.fault_plan.recoveries.push_back({0, recover_at});
         cfg.detection.heartbeats = true;
         cfg.detection.period_seconds = 0.05;
         cfg.detection.suspect_after_missed = 3;
       }},
      {"failslow_disk",
       [&](core::SimConfig& cfg) {
         for (int n = 0; n < nodes / 2; ++n)
           cfg.fault_plan.slowdowns.push_back({n, fault::Resource::kDisk, 4.0, 0.0});
       }},
      {"loss_1pct",
       [&](core::SimConfig& cfg) {
         cfg.fault_plan.message_faults.push_back({.loss_prob = 0.01});
         cfg.retry.max_retries = 3;
         // Calgary's size tail puts slow-but-healthy requests well past a
         // sub-second timeout; the timeout is for vanished messages, so it
         // must clear the response-time tail or it manufactures a retry
         // storm (see docs/bench_fault.md).
         cfg.retry.attempt_timeout_seconds = 3.0;
       }},
      {"loss_5pct",
       [&](core::SimConfig& cfg) {
         cfg.fault_plan.message_faults.push_back(
             {.loss_prob = 0.05, .extra_delay_seconds = 0.0005, .duplicate_prob = 0.01});
         cfg.retry.max_retries = 3;
         cfg.retry.attempt_timeout_seconds = 3.0;
       }},
  };

  const std::vector<PolicyDef> policies = {
      {"trad",
       [&] { return core::make_policy(core::PolicyKind::kTraditional, shrink); }},
      {"lard", [&] { return core::make_policy(core::PolicyKind::kLard, shrink); }},
      {"lard_failover",
       [&]() -> std::unique_ptr<policy::Policy> {
         policy::LardParams p;
         p.set_shrink_seconds = shrink;
         p.front_end_failover = true;
         return std::make_unique<policy::LardPolicy>(p);
       }},
      {"l2s", [&] { return core::make_policy(core::PolicyKind::kL2s, shrink); }},
  };

  auto run_one = [&](const Scenario& s, const PolicyDef& p) {
    core::SimConfig cfg = base;
    cfg.goodput_interval_seconds = goodput_interval;
    s.apply(cfg);
    core::ClusterSimulation sim(cfg, tr, p.make());
    Row row{s.name, p.name, sim.run(), 0.0};
    row.served = static_cast<double>(row.r.completed) / total;
    return row;
  };

  std::vector<Row> rows;
  TextTable t({"Scenario", "Policy", "Served %", "Failed", "RetryAmp", "Detect ms",
               "Recover ms", "Drops"});
  for (const auto& s : scenarios) {
    for (const auto& p : policies) {
      rows.push_back(run_one(s, p));
      const auto& row = rows.back();
      t.cell(row.scenario)
          .cell(row.policy)
          .cell(row.served * 100.0, 2)
          .cell(static_cast<long long>(row.r.failed))
          .cell(row.r.retry_amplification, 3)
          .cell(row.r.detection_latency_ms, 1)
          .cell(row.r.time_to_recover_ms, 1)
          .cell(static_cast<long long>(row.r.via_dropped))
          .end_row();
    }
  }
  t.print(std::cout);

  auto find = [&](const std::string& scenario, const std::string& pol) -> const Row& {
    for (const auto& row : rows)
      if (row.scenario == scenario && row.policy == pol) return row;
    throw_error("fault_bench: missing row " + scenario + "/" + pol);
  };

  // --- acceptance gates ----------------------------------------------------
  std::vector<benchgate::Gate> gates;

  {
    // (a) A single-node crash costs L2S little; LARD without failover
    // loses everything after its front-end dies.
    const Row& l2s = find("crash", "l2s");
    const Row& lard = find("crash", "lard");
    gates.push_back({"a_l2s_absorbs_crash", l2s.served >= 0.95,
                     "l2s served " + format_double(l2s.served * 100.0, 2) + "% (need >= 95%)"});
    gates.push_back({"a_lard_loses_tail", lard.served <= 0.7,
                     "lard served " + format_double(lard.served * 100.0, 2) + "% (need <= 70%)"});
  }
  {
    // (b) Warm-spare failover turns the SPOF into a detection window.
    const Row& fo = find("crash_recover", "lard_failover");
    gates.push_back({"b_failover_serves_tail", fo.served >= 0.9,
                     "lard_failover served " + format_double(fo.served * 100.0, 2) +
                         "% (need >= 90%)"});
    gates.push_back({"b_failover_detects_in_time",
                     fo.r.detection_latency_ms > 0.0 &&
                         fo.r.detection_latency_ms <= detection_s * 1000.0 * 1.5,
                     "detection " + format_double(fo.r.detection_latency_ms, 1) + " ms (limit " +
                         format_double(detection_s * 1000.0 * 1.5, 1) + " ms)"});
  }
  {
    // (c) 1% loss is a non-event once retries are on.
    for (const char* pol : {"trad", "lard", "l2s"}) {
      const Row& row = find("loss_1pct", pol);
      gates.push_back({std::string("c_loss1pct_") + pol, row.served >= 0.99,
                       std::string(pol) + " served " + format_double(row.served * 100.0, 2) +
                           "% (need >= 99%)"});
    }
  }

  // Bit-reproducibility: replay one stochastic scenario and compare.
  const Row& first = find("loss_5pct", "l2s");
  const Row rerun = run_one(scenarios[5], policies[3]);
  const bool deterministic = first.r.completed == rerun.r.completed &&
                             first.r.failed == rerun.r.failed &&
                             first.r.via_dropped == rerun.r.via_dropped &&
                             first.r.retry_attempts == rerun.r.retry_attempts &&
                             first.r.elapsed_seconds == rerun.r.elapsed_seconds;
  gates.push_back({"bit_reproducible", deterministic,
                   deterministic ? "replay identical" : "replay diverged"});

  return benchgate::finish("fault_bench", out_path, gates, [&](std::ostream& out) {
    out << "{\n"
        << "  \"bench\": \"fault\",\n"
        << "  \"trace\": \"Calgary\",\n"
        << "  \"scale\": " << format_double(scale, 3) << ",\n"
        << "  \"nodes\": " << nodes << ",\n"
        << "  \"request_count\": " << tr.request_count() << ",\n"
        << "  \"crash_at_seconds\": " << format_double(crash_at, 4) << ",\n"
        << "  \"recover_at_seconds\": " << format_double(recover_at, 4) << ",\n"
        << "  \"detection_seconds\": " << format_double(detection_s, 4) << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) json_row(out, rows[i], i + 1 == rows.size());
    out << "  ],\n";
  });
}
