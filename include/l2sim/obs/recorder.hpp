// FlightRecorder: the deterministic decision log. A passive sink on the
// engine's lifecycle event stream that keeps the records the engine emits
// (EngineContext::note_decision) in a bounded ring. It schedules no
// events, draws no randomness and mutates no engine state, so recording
// cannot perturb the simulation: golden digests are bit-identical with the
// recorder on or off (pinned by
// GoldenResults.FlightRecorderDoesNotPerturbDigests).
#pragma once

#include <cstdint>

#include "l2sim/common/ring.hpp"
#include "l2sim/core/engine/lifecycle.hpp"
#include "l2sim/obs/config.hpp"
#include "l2sim/obs/decision.hpp"

namespace l2s::obs {

class FlightRecorder final : public core::engine::LifecycleObserver {
 public:
  explicit FlightRecorder(const ObsConfig& config);

  void on_event(const DecisionRecord& record, const cluster::Connection* conn) override;

  /// Drop everything recorded so far (used when the coordinator discards
  /// warm-up history because ObsConfig::include_warmup is off).
  void clear();

  /// Snapshot the retained window, oldest record first.
  [[nodiscard]] DecisionTrace trace() const;

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }

 private:
  ObsConfig config_;
  Ring<DecisionRecord> ring_;   ///< wraps at config_.capacity when bounded
  std::uint64_t recorded_ = 0;  ///< global record count (sink index source)
};

}  // namespace l2s::obs
