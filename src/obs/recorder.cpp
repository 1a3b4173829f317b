#include "l2sim/obs/recorder.hpp"

namespace l2s::obs {

FlightRecorder::FlightRecorder(const ObsConfig& config)
    : config_(config), ring_(static_cast<std::size_t>(config.capacity)) {}

void FlightRecorder::on_event(const DecisionRecord& record,
                              const cluster::Connection* /*conn*/) {
  if (!config_.include_warmup && record.pass == 0) return;
  if (config_.sink != nullptr) config_.sink->on_decision(recorded_, record);
  ++recorded_;
  if (config_.enabled) ring_.record(record);  // sink-only mode retains nothing
}

void FlightRecorder::clear() {
  ring_.reset();
  recorded_ = 0;
}

DecisionTrace FlightRecorder::trace() const {
  return {.records = ring_.chronological(),
          .recorded = recorded_,
          .dropped = recorded_ - ring_.size(),
          .capacity = config_.capacity};
}

}  // namespace l2s::obs
