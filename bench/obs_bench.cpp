// Flight-recorder overhead gates.
//
// The recorder is a sink on the same lifecycle event stream telemetry is,
// schedules nothing and draws no randomness — so its cost must be a small
// constant per decision. Two modes run interleaved (paired wall clock per
// rep, so transient machine noise cannot charge one mode more than
// another; bench/overhead_timing.hpp):
//
//   off        obs disabled — the null-object path the golden digests pin.
//   ring       obs.enabled with the default 16K-record ring: the
//              recommended always-on configuration. Gate: <= 2% over
//              `off` on saturated throughput.
//
// The unbounded mode (obs.capacity = 0, retain everything — the `l2sim
// diff` configuration) is measured once AFTER the gated interleave, not
// inside it: its tens-of-MB grow-reallocate vector perturbs allocator
// state for whatever runs next, which was enough to wobble the paired
// off/ring ratios by several percent. It is informational, no gate —
// memory growth, not CPU, is its real cost.
//
// Gate protocol: up to kAttempts full interleaves; the gated ratio is the
// best attempt's. A real regression is present in every run and therefore
// fails every attempt; shared-host noise at the +-2-4% level (bursty
// neighbors, frequency drift, address-space layout luck) fails one attempt
// with noticeable probability but all of them only rarely. Within an
// attempt the estimator is the SMALLER of two upward-biased statistics —
// ratio of minima and median of per-rep paired ratios — for the same
// reason: overhead inflates both, an artifact usually inflates one.
//
// Emits BENCH_obs.json and exits non-zero when the gate fails so CI treats
// regressions as errors. The gate carries a small absolute floor so a
// microscopic trace under L2SIM_SCALE cannot fail on scheduler jitter.
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

namespace {

struct Attempt {
  std::vector<double> best;    // per mode, min over reps
  double min_ratio = 0.0;      // best[ring] / best[off]
  double median_paired = 0.0;  // median over reps of paired ring/off
  double ratio() const { return std::min(min_ratio, median_paired); }
};

Attempt run_attempt(const trace::Trace& tr, const core::SimConfig& base,
                    const std::vector<Mode>& modes, int reps) {
  const auto secs = benchtiming::interleave(tr, base, modes, reps);
  Attempt a;
  a.best.assign(modes.size(), 1e300);
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (const double s : secs[m]) a.best[m] = std::min(a.best[m], s);
  }
  a.min_ratio = a.best[1] / a.best[0];
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    ratios.push_back(secs[1][static_cast<std::size_t>(rep)] /
                     secs[0][static_cast<std::size_t>(rep)]);
  }
  std::sort(ratios.begin(), ratios.end());
  a.median_paired = ratios[ratios.size() / 2];
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];

  const double scale = bench_scale();
  const int reps = 9;
  const int kAttempts = 3;
  const double limit = 1.02;
  // Absolute slack: below this delta a ratio is noise, not overhead.
  const double floor_s = 0.002;

  trace::SyntheticSpec spec;
  spec.name = "obs-bench";
  spec.files = 800;
  spec.avg_file_kb = 10.0;
  // Long enough per mode (~0.5 s) that a 2% gate measures overhead, not
  // scheduler jitter — the floor is deliberately higher than the other
  // overhead benches because the quantity gated here is smaller.
  spec.requests = static_cast<std::uint64_t>(400000.0 * scale);
  if (spec.requests < 120000) spec.requests = 120000;
  spec.avg_request_kb = 8.0;
  spec.alpha = 0.9;
  spec.seed = 4243;
  const trace::Trace tr = trace::generate(spec);

  core::SimConfig base;
  base.nodes = 8;
  base.node.cache_bytes = 16 * kMiB;

  const std::vector<Mode> modes = {
      {"off", [](core::SimConfig&) {}},
      {"ring",
       [](core::SimConfig& cfg) {
         cfg.obs.enabled = true;  // default 16K-record ring
       }},
  };

  std::cout << "Flight-recorder overhead bench (" << tr.request_count() << " requests, "
            << base.nodes << " nodes, " << reps << " interleaved reps x up to "
            << kAttempts << " attempts, L2SIM_SCALE=" << scale << ")\n\n";

  // Untimed warm-up pass (page in the trace, warm the allocator), with the
  // recorder on so we can report how many records a run emits.
  std::uint64_t recorded = 0;
  {
    core::SimConfig cfg = base;
    modes[1].apply(cfg);
    core::SimResult warm;
    (void)run_seconds(tr, cfg, &warm);
    if (warm.decisions != nullptr) recorded = warm.decisions->recorded;
  }
  std::cout << "decision records per run: " << recorded << "\n\n";

  std::vector<Attempt> attempts;
  std::size_t gated = 0;
  for (int att = 0; att < kAttempts; ++att) {
    attempts.push_back(run_attempt(tr, base, modes, reps));
    const Attempt& a = attempts.back();
    std::cout << "attempt " << (att + 1) << ": min-ratio "
              << format_double(a.min_ratio, 4) << "  median-paired "
              << format_double(a.median_paired, 4) << "\n";
    if (a.ratio() < attempts[gated].ratio()) gated = attempts.size() - 1;
    if (attempts[gated].ratio() <= limit) break;  // gate satisfied, stop early
  }
  const Attempt& a = attempts[gated];

  // Unbounded retention, once, after the gated pairs (see header comment).
  double unbounded_s = 0.0;
  {
    core::SimConfig cfg = base;
    cfg.obs.enabled = true;
    cfg.obs.capacity = 0;
    unbounded_s = run_seconds(tr, cfg);
  }

  const double off = a.best[0];
  std::cout << "\n";
  TextTable t({"Mode", "Best s", "Min ratio", "Median paired ratio"});
  for (std::size_t m = 0; m < modes.size(); ++m) {
    t.cell(modes[m].name).cell(a.best[m], 4).cell(a.best[m] / off, 4)
        .cell(m == 1 ? format_double(a.median_paired, 4) : "1.0000").end_row();
  }
  t.cell("unbounded").cell(unbounded_s, 4).cell(unbounded_s / off, 4).cell("-").end_row();
  t.print(std::cout);

  const double ratio = a.ratio();
  const bool pass = ratio <= limit || (ratio - 1.0) * off <= floor_s;

  const std::vector<benchgate::Gate> gates = {
      {"ring_overhead_le_2pct", pass,
       "ratio " + format_double(ratio, 4) + " (limit " + format_double(limit, 2) +
           ", best of " + std::to_string(attempts.size()) + " attempt" +
           (attempts.size() == 1 ? "" : "s") + ")"}};
  return benchgate::finish("obs_bench", out_path, gates, [&](std::ostream& out) {
    out << "{\n"
        << "  \"bench\": \"obs\",\n"
        << "  \"scale\": " << format_double(scale, 3) << ",\n"
        << "  \"nodes\": " << base.nodes << ",\n"
        << "  \"request_count\": " << tr.request_count() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"attempts\": " << attempts.size() << ",\n"
        << "  \"modes\": [\n";
    for (std::size_t m = 0; m < modes.size(); ++m) {
      out << "    {\"mode\": \"" << modes[m].name << "\", \"best_seconds\": "
          << format_double(a.best[m], 6) << ", \"min_ratio_vs_off\": "
          << format_double(a.best[m] / off, 6) << ", \"median_paired_ratio_vs_off\": "
          << format_double(m == 1 ? a.median_paired : 1.0, 6) << "},\n";
    }
    out << "    {\"mode\": \"unbounded\", \"best_seconds\": "
        << format_double(unbounded_s, 6) << ", \"min_ratio_vs_off\": "
        << format_double(unbounded_s / off, 6) << "}\n";
    out << "  ],\n"
        << "  \"gated_ratio\": " << format_double(ratio, 6) << ",\n";
  });
}
