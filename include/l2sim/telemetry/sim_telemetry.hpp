// SimTelemetry: the bridge between the simulation engine and the
// telemetry subsystem. It is one more sink on the engine's lifecycle event
// stream — the engine neither knows nor cares that it exists — and owns
// the run's Registry, SpanRecorder and TimelineProbe. Request outcomes are
// counted once, by the run's MetricsCollector: SimTelemetry publishes that
// tally at snapshot and folds only what the collector does not count
// (completion cuts, per-cause overload counters, spans, fault events). The
// coordinator registers it only when TelemetryConfig::enabled is set,
// which is the whole null-object story: disabled telemetry is not a cheap
// code path, it is no code path.
//
// Observation is strictly passive: handlers read engine state (connection
// timestamps, node counters) and write telemetry state; they draw no
// randomness from the simulation streams and schedule no events, so an
// instrumented run replays bit-identically to an uninstrumented one (the
// golden-digest suite pins this).
#pragma once

#include <memory>

#include "l2sim/core/engine/context.hpp"
#include "l2sim/telemetry/config.hpp"
#include "l2sim/telemetry/probe.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/telemetry/span.hpp"

namespace l2s::core::engine {
class MetricsCollector;
}  // namespace l2s::core::engine

namespace l2s::telemetry {

class SimTelemetry final : public core::engine::LifecycleObserver {
 public:
  /// `tally` is the run's collector; it must outlive this object.
  SimTelemetry(const core::engine::EngineContext& ctx, const TelemetryConfig& config,
               const core::engine::MetricsCollector& tally);

  /// Arm the measured pass: the probe starts recording, with its
  /// utilization differentiation anchored at `measure_start`.
  void begin_measurement(SimTime measure_start);

  /// End of warm-up: drop everything observed so far, keep registrations.
  void reset();

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const SpanRecorder& spans() const { return spans_; }
  /// The timeline probe, or nullptr with TelemetryConfig::probe off.
  [[nodiscard]] const TimelineProbe* probe() const { return probe_.get(); }

  /// Publish the collector's tally, then detach the run's telemetry:
  /// registry metrics + the probe's timeline (moved out, not copied) +
  /// sampled spans + fault timeline, ready for exporters or cross-job
  /// merging.
  [[nodiscard]] Snapshot snapshot();

  void on_event(const obs::DecisionRecord& record, const cluster::Connection* conn) override;
  void on_load_sample(SimTime now) override;

 private:
  /// Write the collector's tally into the registry under the telemetry
  /// names. The first call (from the constructor) fixes their order.
  void publish_tally();
  /// Span of a sampled request that ended (completed or failed) at `end`.
  void record_span(const cluster::Connection& conn, SpanVerdict verdict, SimTime end);
  void record_fault(FaultEvent::Kind kind, const obs::DecisionRecord& record);

  const core::engine::EngineContext& ctx_;
  TelemetryConfig config_;
  const core::engine::MetricsCollector& tally_;
  Registry registry_;
  SpanRecorder spans_;
  std::unique_ptr<TimelineProbe> probe_;
  std::vector<TimelineProbe::Reading> readings_;  ///< one per node, reused every tick
  std::vector<FaultEvent> fault_events_;
  std::uint32_t fault_epoch_ = 0;

  // Cached handles into registry_ (stable for the registry's lifetime).
  Counter* completed_hits_ = nullptr;
  Counter* completed_forwarded_ = nullptr;
};

}  // namespace l2s::telemetry
