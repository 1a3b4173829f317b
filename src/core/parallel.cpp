#include "l2sim/core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "l2sim/common/env.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/telemetry/registry.hpp"

namespace l2s::core {

unsigned compute_worker_threads(std::size_t jobs, unsigned budget) {
  if (jobs == 0) return 0;
  return static_cast<unsigned>(std::min<std::size_t>(std::max(1u, budget), jobs));
}

std::shared_ptr<const telemetry::Snapshot> merge_telemetry(
    const std::vector<SimResult>& results) {
  std::shared_ptr<telemetry::Snapshot> merged;
  for (const SimResult& r : results) {
    if (r.telemetry == nullptr) continue;
    if (merged == nullptr) {
      merged = std::make_shared<telemetry::Snapshot>(*r.telemetry);
    } else {
      merged->merge(*r.telemetry);
    }
  }
  return merged;
}

std::vector<SimResult> run_parallel(const std::vector<SimJob>& jobs, unsigned threads) {
  for (const auto& job : jobs)
    if (job.trace == nullptr) throw_error("run_parallel: job without a trace");

  std::vector<SimResult> results(jobs.size());
  if (jobs.empty()) return results;

  if (threads == 0) threads = thread_budget();
  threads = compute_worker_threads(jobs.size(), threads);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::size_t first_error_index = 0;
  std::mutex error_mutex;

  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size() || failed.load()) return;
      try {
        const SimJob& job = jobs[i];
        ClusterSimulation sim(job.sim, *job.trace,
                              make_policy(job.kind, job.set_shrink_seconds, job.l2s));
        results[i] = sim.run();
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
          first_error_index = i;
        }
        failed.store(true);
        return;
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) {
    // Rethrow with the failing job identified: a sweep can hold dozens of
    // (trace, nodes, policy) combinations, and "bad parameter" alone does
    // not say which one to re-run.
    const SimJob& job = jobs[first_error_index];
    std::ostringstream context;
    context << "run_parallel: job " << first_error_index << " (trace="
            << job.trace->name() << ", nodes=" << job.sim.nodes
            << ", policy=" << policy_kind_name(job.kind) << ") failed";
    try {
      std::rethrow_exception(first_error);
    } catch (...) {
      std::throw_with_nested(Error(context.str()));
    }
  }
  return results;
}

}  // namespace l2s::core
