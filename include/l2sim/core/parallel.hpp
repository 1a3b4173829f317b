// Parallel experiment execution: node-count sweeps multiply into dozens of
// completely independent simulations, so they scale across cores. Each job
// builds its own ClusterSimulation (no shared mutable state; the only
// shared structure, the harmonic-number prefix cache, is internally
// synchronized), so results are bit-identical to serial execution.
#pragma once

#include <memory>
#include <vector>

#include "l2sim/core/experiment.hpp"

namespace l2s::telemetry {
struct Snapshot;
}  // namespace l2s::telemetry

namespace l2s::core {

/// One simulation: the policy is make_policy(kind, set_shrink_seconds, l2s).
struct SimJob {
  const trace::Trace* trace = nullptr;
  SimConfig sim;
  PolicyKind kind = PolicyKind::kTraditional;
  double set_shrink_seconds = 20.0;
  policy::L2sParams l2s{};  ///< kL2s's parameters besides the decay window
};

/// Workers run_parallel starts for `jobs` single-threaded jobs under a
/// budget of `budget` threads: the budget clamped to [1, jobs] (0 jobs
/// need no worker).
[[nodiscard]] unsigned compute_worker_threads(std::size_t jobs, unsigned budget);

/// Run all jobs and return their results in job order. `threads == 0`
/// uses the process thread budget (L2SIM_THREADS override, else hardware
/// concurrency); `threads == 1` runs inline. If any job
/// throws, the first failure (after all threads join) is rethrown nested
/// inside an Error naming the job: "run_parallel: job i (trace=...,
/// nodes=..., policy=...) failed". Catch as l2s::Error and use
/// std::rethrow_if_nested to reach the original exception.
[[nodiscard]] std::vector<SimResult> run_parallel(const std::vector<SimJob>& jobs,
                                                  unsigned threads = 0);

/// Merge the telemetry snapshots of a batch of results into one aggregate,
/// always iterating in job-index order — each job owns a private registry
/// during the run (no shared mutable state between workers), and the fixed
/// merge order makes the aggregate identical regardless of which worker
/// finished first. Results without telemetry are skipped; returns null when
/// no result carried any.
[[nodiscard]] std::shared_ptr<const telemetry::Snapshot> merge_telemetry(
    const std::vector<SimResult>& results);

}  // namespace l2s::core
