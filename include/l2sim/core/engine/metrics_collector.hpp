// MetricsCollector: the measured-pass statistics of a run, a fold over the
// engine's lifecycle event stream (LifecycleObserver::on_event), so the
// engine components carry no counters of their own. It is the run's one
// outcome tally: SimTelemetry publishes its counts, response histogram and
// goodput series rather than counting the stream again. Also owns the
// periodic load sampler (imbalance statistics + optional per-node timeline
// CSV) and assembles the final SimResult.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>

#include "l2sim/core/engine/context.hpp"
#include "l2sim/core/metrics.hpp"
#include "l2sim/fault/detector.hpp"
#include "l2sim/stats/accumulator.hpp"
#include "l2sim/stats/availability.hpp"
#include "l2sim/telemetry/metrics.hpp"

namespace l2s::core::engine {

/// Request outcomes of the measured pass, counted once.
struct OutcomeTally {
  std::uint64_t completed = 0;
  std::uint64_t connections = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t migrations = 0;
  std::uint64_t remote_fetches = 0;
  std::uint64_t failed = 0;
  std::uint64_t failed_deadline = 0;
  std::uint64_t failed_retries = 0;
  std::uint64_t failed_rejected = 0;
  std::uint64_t failed_shed = 0;
  std::uint64_t completed_after_retry = 0;
  std::uint64_t retry_attempts = 0;
  std::uint64_t hedge_attempts = 0;
  std::uint64_t brownout_transitions = 0;
  int brownout_level = 0;
  telemetry::Histogram response_ms;  ///< first arrival to completion
};

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

  [[nodiscard]] const OutcomeTally& tally() const { return tally_; }
  [[nodiscard]] const stats::AvailabilityTracker& availability() const {
    return availability_;
  }

 private:
  void sample_loads();
  void count_failure(std::uint64_t& bucket, SimTime now);

  EngineContext& ctx_;

  OutcomeTally tally_;
  stats::AvailabilityTracker availability_;
  stats::Accumulator response_times_;
  stats::Accumulator stage_entry_;
  stats::Accumulator stage_forward_;
  stats::Accumulator stage_disk_;
  stats::Accumulator stage_reply_;
  stats::Accumulator load_cov_;       ///< per-sample load coefficient of variation
  stats::Accumulator load_max_mean_;  ///< per-sample max/mean load ratio
  std::unique_ptr<std::ofstream> timeline_;  ///< optional load timeline sink
};

}  // namespace l2s::core::engine
