// Paired wall-clock timing shared by the observer-overhead benches
// (obs_bench, telemetry_bench): L2S runs of one trace under several
// configuration modes, interleaved so that slow machine drift (thermal,
// frequency, noisy neighbours) charges every mode alike. Each bench keeps
// its own estimator, limits and JSON schema on top of these seconds.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "l2sim/l2sim.hpp"

namespace l2s::benchtiming {

/// One configuration under test: its name and how it changes the base.
struct Mode {
  std::string name;
  std::function<void(core::SimConfig&)> apply;
};

/// Wall-clock seconds of one L2S run of `tr` under `cfg`, set-up excluded.
/// Throws when the run completed nothing; stores the result when asked.
inline double run_seconds(const trace::Trace& tr, const core::SimConfig& cfg,
                          core::SimResult* result = nullptr) {
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto t0 = std::chrono::steady_clock::now();
  auto r = sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (r.completed == 0) throw_error("overhead bench: run completed nothing");
  if (result != nullptr) *result = std::move(r);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// `reps` sweeps over `modes`, alternating the sweep direction every rep.
/// Returns seconds[mode][rep].
inline std::vector<std::vector<double>> interleave(const trace::Trace& tr,
                                                   const core::SimConfig& base,
                                                   const std::vector<Mode>& modes, int reps) {
  std::vector<std::vector<double>> secs(modes.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const std::size_t m = (rep % 2 == 0) ? i : modes.size() - 1 - i;
      core::SimConfig cfg = base;
      modes[m].apply(cfg);
      secs[m].push_back(run_seconds(tr, cfg));
    }
  }
  return secs;
}

}  // namespace l2s::benchtiming
