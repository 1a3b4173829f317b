#include "l2sim/core/engine/admission.hpp"

#include "l2sim/core/engine/overload.hpp"

namespace l2s::core::engine {

void AdmissionController::open() {
  const std::uint64_t slots = ctx_.cfg().admission.buffer_slots_per_node *
                              static_cast<std::uint64_t>(ctx_.cfg().nodes);
  injector_ = std::make_unique<cluster::Injector>(*ctx_.trace, slots);
}

void AdmissionController::begin_replay(cluster::Injector::InjectFn inject) {
  injector_->start(std::move(inject));
}

bool AdmissionController::try_admit(std::uint64_t& seq, trace::Request& request) {
  return injector_->try_admit(seq, request);
}

bool AdmissionController::try_take(std::uint64_t& seq, trace::Request& request) {
  return injector_->try_take(seq, request);
}

void AdmissionController::on_complete() { injector_->on_complete(); }

void AdmissionController::release_after(SimTime hold) {
  if (hold > 0) {
    ctx_.sched->after(hold, [this]() { injector_->on_complete(); });
  } else {
    injector_->on_complete();
  }
}

void AdmissionController::reject_overflow() {
  std::uint64_t seq = 0;
  trace::Request r{};
  if (injector_->try_take(seq, r)) {
    ctx_.note_decision(obs::DecisionKind::kReject, obs::DecisionCause::kBufferOverflow,
                       seq, -1);
  }
}

void AdmissionController::shed_arrival() {
  std::uint64_t seq = 0;
  trace::Request r{};
  if (injector_->try_take(seq, r)) {
    // Attribute the shed to the defense that refused the arrival; the
    // request never materialized a connection, so `request` carries the
    // injector sequence number instead of a connection id.
    ctx_.note_decision(obs::DecisionKind::kShed, ctx_.overload->last_shed_cause(), seq,
                       -1);
  }
}

}  // namespace l2s::core::engine
