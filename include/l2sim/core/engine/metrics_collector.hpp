// MetricsCollector: the measured-pass statistics of a run, a fold over the
// engine's lifecycle event stream (LifecycleObserver::on_event), so the
// engine components carry no counters of their own. Also owns the periodic
// load sampler (imbalance statistics + optional per-node timeline CSV) and
// assembles the final SimResult.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>

#include "l2sim/core/engine/context.hpp"
#include "l2sim/core/metrics.hpp"
#include "l2sim/fault/detector.hpp"
#include "l2sim/stats/accumulator.hpp"
#include "l2sim/stats/availability.hpp"
#include "l2sim/stats/histogram.hpp"

namespace l2s::core::engine {

class MetricsCollector final : public LifecycleObserver {
 public:
  explicit MetricsCollector(EngineContext& ctx) : ctx_(ctx) {}

  /// Start the availability/goodput timeline and open the timeline CSV
  /// sink (if configured) for the measured pass.
  void begin_measurement(SimTime measure_start);

  /// Kick off the periodic load sampler (no-op for single-node runs or
  /// when sampling is disabled).
  void start_sampling();

  /// Zero every counter and accumulator (end of the warm-up pass).
  void reset();

  /// Assemble the SimResult for the measured pass. Throws l2s::Error when
  /// the timeline CSV could not be written.
  [[nodiscard]] SimResult collect(SimTime measure_start,
                                  const fault::FailureDetector* detector) const;

  void on_event(const obs::DecisionRecord& record, const cluster::Connection* conn) override;

 private:
  void sample_loads();
  void count_failure(std::uint64_t& bucket, SimTime now);

  EngineContext& ctx_;

  std::uint64_t completed_ = 0;
  std::uint64_t connections_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t remote_fetches_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failed_deadline_ = 0;
  std::uint64_t failed_retries_ = 0;
  std::uint64_t failed_rejected_ = 0;
  std::uint64_t failed_shed_ = 0;
  std::uint64_t completed_after_retry_ = 0;
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t hedge_attempts_ = 0;
  std::uint64_t brownout_transitions_ = 0;
  int brownout_level_ = 0;
  stats::AvailabilityTracker availability_;
  stats::Accumulator response_times_;
  stats::LogHistogram response_hist_{0.01, 1.3, 64};  ///< ms buckets
  stats::Accumulator stage_entry_;
  stats::Accumulator stage_forward_;
  stats::Accumulator stage_disk_;
  stats::Accumulator stage_reply_;
  stats::Accumulator load_cov_;       ///< per-sample load coefficient of variation
  stats::Accumulator load_max_mean_;  ///< per-sample max/mean load ratio
  std::unique_ptr<std::ofstream> timeline_;  ///< optional load timeline sink
};

}  // namespace l2s::core::engine
