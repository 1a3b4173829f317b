// Telemetry overhead gates.
//
// The telemetry subsystem is a sink on the engine's lifecycle event
// stream, so its cost must be invisible when it is off and small when it
// is on. Four modes run interleaved (min-of-N wall clock per mode, so
// transient machine noise cannot charge one mode more than another;
// bench/overhead_timing.hpp):
//
//   off      telemetry.enabled = false — the null-object path; the only
//            residual cost is the event stream's emit points themselves,
//            which are part of the baseline by construction.
//   counters telemetry on, probe off, span sampling off: the completion
//            cuts' counter bumps and the snapshot's copy of the
//            collector's tally only. Gate: <= 1% over `off`.
//   span64   telemetry on, probe on, 1-in-64 span sampling — the
//            recommended production configuration. Gate: <= 5% over `off`.
//   span1    every span recorded (full capture). Informational, no gate —
//            this is the debugging configuration.
//
// Gate protocol (same as bench/obs_bench): up to kAttempts full
// interleaves, gating the attempt whose ratios sit lowest relative to the
// limits. A real regression is present in every run and fails every
// attempt; shared-host noise at the +-2-4% level fails one attempt with
// noticeable probability but all of them only rarely.
//
// Emits BENCH_telemetry.json (schema: docs/telemetry.md) and exits
// non-zero when a gate fails so CI treats regressions as errors. Gates
// carry a small absolute floor so a microscopic trace under L2SIM_SCALE
// cannot fail on scheduler jitter.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "gate_report.hpp"
#include "l2sim/l2sim.hpp"
#include "overhead_timing.hpp"

using namespace l2s;
using benchtiming::Mode;
using benchtiming::run_seconds;

int main(int argc, char** argv) {
  std::string out_path = "BENCH_telemetry.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  const double scale = bench_scale();
  const int reps = 7;

  trace::SyntheticSpec spec;
  spec.name = "telemetry-bench";
  spec.files = 800;
  spec.avg_file_kb = 10.0;
  // Keep the per-mode run long enough (~0.1 s+) that a 1% gate measures
  // overhead, not scheduler jitter — so the request count has a high floor
  // even under a small L2SIM_SCALE.
  spec.requests = static_cast<std::uint64_t>(200000.0 * scale);
  if (spec.requests < 30000) spec.requests = 30000;
  spec.avg_request_kb = 8.0;
  spec.alpha = 0.9;
  spec.seed = 4242;
  const trace::Trace tr = trace::generate(spec);

  core::SimConfig base;
  base.nodes = 8;
  base.node.cache_bytes = 16 * kMiB;

  const std::vector<Mode> modes = {
      {"off", [](core::SimConfig&) {}},
      {"counters",
       [](core::SimConfig& cfg) {
         cfg.telemetry.enabled = true;
         cfg.telemetry.probe = false;
         cfg.telemetry.span_sample_every = 0;
       }},
      {"span64",
       [](core::SimConfig& cfg) {
         cfg.telemetry.enabled = true;
         cfg.telemetry.span_sample_every = 64;
       }},
      {"span1",
       [](core::SimConfig& cfg) {
         cfg.telemetry.enabled = true;
         cfg.telemetry.span_sample_every = 1;
         cfg.telemetry.span_capacity = 1 << 16;
       }},
  };

  const int kAttempts = 3;

  std::cout << "Telemetry overhead bench (" << tr.request_count() << " requests, "
            << base.nodes << " nodes, min of " << reps
            << " interleaved reps x up to " << kAttempts
            << " attempts, L2SIM_SCALE=" << scale << ")\n\n";

  // Untimed warm-up pass (page in the trace, warm the allocator).
  {
    core::SimConfig cfg = base;
    (void)run_seconds(tr, cfg);
  }

  // An attempt's badness is its worst gate ratio relative to that gate's
  // limit; the gated attempt is the least-bad one (see header comment).
  auto attempt_badness = [](const std::vector<double>& b) {
    return std::max(b[1] / b[0] - 1.01, b[2] / b[0] - 1.05);
  };
  std::vector<double> best;
  int attempts_run = 0;
  for (int att = 0; att < kAttempts; ++att) {
    std::vector<double> cur;
    for (const auto& secs : benchtiming::interleave(tr, base, modes, reps))
      cur.push_back(*std::min_element(secs.begin(), secs.end()));
    ++attempts_run;
    std::cout << "attempt " << attempts_run << ": counters "
              << format_double(cur[1] / cur[0], 4) << "  span64 "
              << format_double(cur[2] / cur[0], 4) << "\n";
    if (best.empty() || attempt_badness(cur) < attempt_badness(best)) best = cur;
    if (attempt_badness(best) <= 0.0) break;  // all gates satisfied
  }
  std::cout << "\n";

  const double off = best[0];
  TextTable t({"Mode", "Best s", "Ratio vs off"});
  for (std::size_t m = 0; m < modes.size(); ++m) {
    t.cell(modes[m].name).cell(best[m], 4).cell(best[m] / off, 4).end_row();
  }
  t.print(std::cout);

  // Absolute slack: below this delta a ratio is noise, not overhead.
  const double floor_s = 0.002;

  auto gate = [&](const std::string& name, double secs, double limit) {
    const double ratio = secs / off;
    const bool pass = ratio <= limit || (secs - off) <= floor_s;
    return benchgate::Gate{name, pass,
                           "ratio " + format_double(ratio, 4) + " (limit " +
                               format_double(limit, 2) + ")"};
  };
  const std::vector<benchgate::Gate> gates = {
      gate("counters_overhead_le_1pct", best[1], 1.01),
      gate("span64_overhead_le_5pct", best[2], 1.05),
  };

  return benchgate::finish("telemetry_bench", out_path, gates, [&](std::ostream& out) {
    out << "{\n"
        << "  \"bench\": \"telemetry\",\n"
        << "  \"scale\": " << format_double(scale, 3) << ",\n"
        << "  \"nodes\": " << base.nodes << ",\n"
        << "  \"request_count\": " << tr.request_count() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"attempts\": " << attempts_run << ",\n"
        << "  \"modes\": [\n";
    for (std::size_t m = 0; m < modes.size(); ++m) {
      out << "    {\"mode\": \"" << modes[m].name << "\", \"best_seconds\": "
          << format_double(best[m], 6) << ", \"ratio_vs_off\": "
          << format_double(best[m] / off, 6) << "}"
          << (m + 1 == modes.size() ? "\n" : ",\n");
    }
    out << "  ],\n";
  });
}
