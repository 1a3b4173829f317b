// Overload-defense bench — the metastable-collapse gate.
//
// One synthetic hot-object workload, three runs of the same cluster:
//
//   nominal     steady 1600 req/s on 4 warm nodes, no faults, no defenses;
//   undefended  a 3x flash crowd lands as node 1 crashes over lossy links,
//               deep admission buffers + a 0.1 s attempt timeout + 2
//               retries — the retry-storm recipe — with every defense off;
//   defended    the same chaos with the l2s::overload stack on: AIMD
//               admission window, retry token bucket, brownout.
//
// Plus two ablation rows (budget only, shedder only) to show neither
// defense carries the gate alone. Emits BENCH_overload.json and enforces:
//
//   (a) nominal is healthy (>= 99% served);
//   (b) the undefended baseline demonstrably collapses (<= 40% served);
//   (c) the defended run keeps goodput >= 70% of nominal;
//   (d) the shedder actually engages (defended sheds, undefended cannot);
//   (e) chaos replays bit-identically, serial and under run_parallel.
//
// Exits non-zero if any gate fails, so CI can run it as a regression test.
#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "gate_report.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/l2sim.hpp"

using namespace l2s;

namespace {

struct Row {
  std::string scenario;
  core::SimResult r;
  double served = 0.0;
  std::string digest;
};

void json_row(std::ostream& out, const Row& row, bool last) {
  const auto& r = row.r;
  out << "    {\"scenario\": \"" << row.scenario << "\",\n"
      << "     \"completed\": " << r.completed << ", \"failed\": " << r.failed
      << ", \"failed_deadline\": " << r.failed_deadline
      << ", \"failed_retries_exhausted\": " << r.failed_retries_exhausted
      << ", \"failed_rejected\": " << r.failed_rejected
      << ", \"failed_shed\": " << r.failed_shed << ",\n"
      << "     \"served_fraction\": " << format_double(row.served, 6)
      << ", \"throughput_rps\": " << format_double(r.throughput_rps, 1)
      << ", \"elapsed_seconds\": " << format_double(r.elapsed_seconds, 6) << ",\n"
      << "     \"retry_attempts\": " << r.retry_attempts
      << ", \"retry_amplification\": " << format_double(r.retry_amplification, 4)
      << ", \"hedge_attempts\": " << r.hedge_attempts
      << ", \"brownout_transitions\": " << r.brownout_transitions << ",\n"
      << "     \"p95_response_ms\": " << format_double(r.p95_response_ms, 3)
      << ", \"digest\": \"" << row.digest << "\""
      << ", \"goodput_rps\": [";
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
  std::string out_path = "BENCH_overload.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  const double scale = bench_scale();
  const int nodes = 4;

  // The chaos-harness workload (tests/test_chaos.cpp uses the same one):
  // a small hot catalogue so the warmed cluster is CPU/NIC-bound and the
  // flash, not cold misses, is what overloads it. The metastable collapse
  // is a threshold phenomenon — a shorter trace shortens the flash and the
  // baseline only half-collapses — so L2SIM_SCALE may grow the trace but
  // never shrink it below the validated 9000-request geometry.
  trace::SyntheticSpec spec;
  spec.name = "chaos";
  spec.files = 250;
  spec.avg_file_kb = 8.0;
  spec.requests = static_cast<std::uint64_t>(9000.0 * std::max(1.0, scale));
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 1337;
  const trace::Trace tr = trace::generate(spec);
  const auto total = static_cast<double>(tr.request_count());

  std::cout << "Overload-defense bench (" << nodes << " nodes, "
            << tr.request_count() << " requests, L2SIM_SCALE=" << scale << ")\n\n";

  core::SimConfig base;
  base.nodes = nodes;
  base.node.cache_bytes = 2 * kMiB;
  base.arrival.open_loop_rate = 1600.0;
  base.admission.buffer_slots_per_node = 256;
  base.retry.max_retries = 2;
  base.retry.attempt_timeout_seconds = 0.1;
  base.retry.deadline_seconds = 0.5;
  base.detection.heartbeats = true;
  base.detection.period_seconds = 0.02;
  base.detection.readmit_after_fresh = 3;
  base.goodput_interval_seconds = 0.1;

  auto chaos = [](core::SimConfig& cfg) {
    cfg.arrival.shape = core::ArrivalShape::kFlashCrowd;
    cfg.arrival.flash_at_seconds = 0.15;
    cfg.arrival.flash_factor = 3.0;
    cfg.arrival.flash_ramp_seconds = 0.05;
    cfg.fault_plan.crashes.push_back({1, 0.15});
    cfg.fault_plan.message_faults.push_back(
        {.loss_prob = 0.01, .extra_delay_seconds = 0.0002, .duplicate_prob = 0.02});
  };
  auto budget = [](core::SimConfig& cfg) {
    cfg.overload.retry_budget_ratio = 0.1;
    cfg.overload.retry_budget_burst = 16.0;
  };
  auto shedder = [](core::SimConfig& cfg) {
    cfg.overload.shedder = core::ShedderKind::kAimd;
    cfg.overload.aimd_increase = 16.0;
  };
  auto brownout = [](core::SimConfig& cfg) {
    cfg.overload.brownout = true;
    cfg.overload.delay_window_seconds = 0.05;
    cfg.overload.brownout_forward_delay_seconds = 0.08;
    cfg.overload.brownout_service_delay_seconds = 0.2;
  };

  struct Scenario {
    std::string name;
    std::function<void(core::SimConfig&)> apply;
  };
  const std::vector<Scenario> scenarios = {
      {"nominal", [&](core::SimConfig&) {}},
      {"flash_crash_undefended", [&](core::SimConfig& cfg) { chaos(cfg); }},
      {"flash_crash_defended",
       [&](core::SimConfig& cfg) {
         chaos(cfg);
         shedder(cfg);
         budget(cfg);
         brownout(cfg);
       }},
      {"flash_crash_budget_only",
       [&](core::SimConfig& cfg) {
         chaos(cfg);
         budget(cfg);
       }},
      {"flash_crash_shed_only",
       [&](core::SimConfig& cfg) {
         chaos(cfg);
         shedder(cfg);
       }},
  };

  auto make_cfg = [&](const Scenario& s) {
    core::SimConfig cfg = base;
    s.apply(cfg);
    return cfg;
  };
  auto run_one = [&](const Scenario& s) {
    Row row{s.name, core::run_once(tr, make_cfg(s), core::PolicyKind::kL2s), 0.0, ""};
    row.served = static_cast<double>(row.r.completed) / total;
    row.digest = core::result_digest_hex(row.r);
    return row;
  };

  std::vector<Row> rows;
  TextTable t({"Scenario", "Served %", "Shed", "RetriesExh", "Rejected", "RetryAmp",
               "p95 ms", "Goodput rps"});
  for (const auto& s : scenarios) {
    rows.push_back(run_one(s));
    const auto& row = rows.back();
    t.cell(row.scenario)
        .cell(row.served * 100.0, 2)
        .cell(static_cast<long long>(row.r.failed_shed))
        .cell(static_cast<long long>(row.r.failed_retries_exhausted))
        .cell(static_cast<long long>(row.r.failed_rejected))
        .cell(row.r.retry_amplification, 3)
        .cell(row.r.p95_response_ms, 1)
        .cell(row.r.throughput_rps, 0)
        .end_row();
  }
  t.print(std::cout);

  auto find = [&](const std::string& name) -> const Row& {
    for (const auto& row : rows)
      if (row.scenario == name) return row;
    throw_error("overload_bench: missing row " + name);
  };
  const Row& nominal = find("nominal");
  const Row& undefended = find("flash_crash_undefended");
  const Row& defended = find("flash_crash_defended");

  // --- acceptance gates ----------------------------------------------------
  std::vector<benchgate::Gate> gates;

  gates.push_back({"nominal_healthy", nominal.served >= 0.99,
                   "nominal served " + format_double(nominal.served * 100.0, 2) +
                       "% (need >= 99%)"});
  gates.push_back({"baseline_collapses", undefended.served <= 0.40,
                   "undefended served " + format_double(undefended.served * 100.0, 2) +
                       "% (need <= 40%: the metastable collapse)"});
  gates.push_back({"defended_70pct_of_nominal", defended.served >= 0.70 * nominal.served,
                   "defended served " + format_double(defended.served * 100.0, 2) +
                       "% vs nominal " + format_double(nominal.served * 100.0, 2) +
                       "% (need >= 70% of nominal)"});
  gates.push_back({"shedder_engages",
                   defended.r.failed_shed > 0 && undefended.r.failed_shed == 0,
                   "defended shed " + std::to_string(defended.r.failed_shed) +
                       ", undefended shed " + std::to_string(undefended.r.failed_shed)});

  // Bit-reproducibility: the defended chaos run replays identically both
  // serially and through core::run_parallel.
  const Row rerun = run_one(scenarios[2]);
  const bool serial_identical = rerun.digest == defended.digest;
  std::vector<core::SimJob> jobs;
  const core::SimConfig cfg_undef = make_cfg(scenarios[1]);
  const core::SimConfig cfg_def = make_cfg(scenarios[2]);
  for (const auto* cfg : {&cfg_undef, &cfg_def}) {
    core::SimJob j;
    j.trace = &tr;
    j.sim = *cfg;
    j.kind = core::PolicyKind::kL2s;
    jobs.push_back(std::move(j));
  }
  const auto par = core::run_parallel(jobs);
  const bool parallel_identical =
      par.size() == 2 && core::result_digest_hex(par[0]) == undefended.digest &&
      core::result_digest_hex(par[1]) == defended.digest;
  gates.push_back({"bit_reproducible_serial", serial_identical,
                   serial_identical ? "defended replay identical" : "defended replay diverged"});
  gates.push_back({"bit_reproducible_parallel", parallel_identical,
                   parallel_identical ? "run_parallel matches serial digests"
                                      : "run_parallel diverged from serial"});

  return benchgate::finish("overload_bench", out_path, gates, [&](std::ostream& out) {
    out << "{\n"
        << "  \"bench\": \"overload\",\n"
        << "  \"trace\": \"" << spec.name << "\",\n"
        << "  \"scale\": " << format_double(scale, 3) << ",\n"
        << "  \"nodes\": " << nodes << ",\n"
        << "  \"request_count\": " << tr.request_count() << ",\n"
        << "  \"nominal_rate_rps\": " << format_double(base.arrival.open_loop_rate, 1)
        << ",\n"
        << "  \"flash_factor\": 3.0,\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) json_row(out, rows[i], i + 1 == rows.size());
    out << "  ],\n";
  });
}
