#include "l2sim/core/config.hpp"

#include <algorithm>
#include <cmath>

#include "l2sim/common/error.hpp"

namespace l2s::core {

double ArrivalConfig::shape_multiplier(double t) const {
  switch (shape) {
    case ArrivalShape::kStationary:
      return 1.0;
    case ArrivalShape::kFlashCrowd: {
      // Trapezoid: ramp up over flash_ramp_seconds starting at
      // flash_at_seconds, hold at flash_factor, ramp back down. A zero ramp
      // is a step; an infinite hold never comes back down.
      const double since = t - flash_at_seconds;
      if (since < 0.0) return 1.0;
      if (since < flash_ramp_seconds)
        return 1.0 + (flash_factor - 1.0) * (since / flash_ramp_seconds);
      const double since_peak = since - flash_ramp_seconds;
      if (since_peak < flash_hold_seconds) return flash_factor;
      const double since_fall = since_peak - flash_hold_seconds;
      if (flash_ramp_seconds > 0.0 && since_fall < flash_ramp_seconds)
        return flash_factor -
               (flash_factor - 1.0) * (since_fall / flash_ramp_seconds);
      return 1.0;
    }
    case ArrivalShape::kDiurnal:
      return 1.0 + diurnal_amplitude *
                       std::sin(2.0 * 3.14159265358979323846 * t /
                                diurnal_period_seconds);
  }
  return 1.0;
}

double ArrivalConfig::peak_multiplier() const {
  switch (shape) {
    case ArrivalShape::kStationary:
      return 1.0;
    case ArrivalShape::kFlashCrowd:
      return std::max(1.0, flash_factor);
    case ArrivalShape::kDiurnal:
      return 1.0 + diurnal_amplitude;
  }
  return 1.0;
}

void SimConfig::validate() const {
  if (nodes < 1) throw_error("SimConfig: nodes must be >= 1");
  if (admission.buffer_slots_per_node < 1)
    throw_error("SimConfig: admission.buffer_slots_per_node must be >= 1");
  if (request_msg_bytes == 0) throw_error("SimConfig: request_msg_bytes must be positive");
  if (persistence.mean_requests_per_connection < 1.0)
    throw_error("SimConfig: persistence.mean_requests_per_connection must be >= 1");
  if (failure_detection_seconds < 0.0)
    throw_error("SimConfig: failure_detection_seconds must be nonnegative");
  if (failure_client_timeout_seconds < 0.0)
    throw_error("SimConfig: failure_client_timeout_seconds must be nonnegative");
  fault_plan.validate(nodes);
  detection.validate();
  telemetry.validate();
  topology.validate(nodes);
  if (retry.max_retries < 0) throw_error("SimConfig: retry.max_retries must be >= 0");
  if (retry.initial_backoff_seconds < 0.0 || retry.max_backoff_seconds < 0.0 ||
      retry.deadline_seconds < 0.0 || retry.attempt_timeout_seconds < 0.0)
    throw_error("SimConfig: retry times must be nonnegative");
  if (retry.backoff_multiplier < 1.0)
    throw_error("SimConfig: retry.backoff_multiplier must be >= 1");
  if (goodput_interval_seconds < 0.0)
    throw_error("SimConfig: goodput_interval_seconds must be nonnegative");
  if (fault_plan.lossy() && retry.deadline_seconds <= 0.0 &&
      retry.attempt_timeout_seconds <= 0.0)
    throw_error(
        "SimConfig: a lossy fault plan requires retry.deadline_seconds or "
        "retry.attempt_timeout_seconds (a lost hand-off would otherwise hold "
        "its admission slot forever)");
  if (arrival.open_loop_rate < 0.0)
    throw_error("SimConfig: arrival.open_loop_rate must be nonnegative");
  if (arrival.dns_entry_skew < 0.0 || arrival.dns_entry_skew > 1.0)
    throw_error("SimConfig: arrival.dns_entry_skew must be in [0, 1]");
  if (arrival.shape != ArrivalShape::kStationary && arrival.open_loop_rate <= 0.0)
    throw_error("SimConfig: a non-stationary arrival shape requires open_loop_rate");
  if (arrival.shape == ArrivalShape::kFlashCrowd) {
    if (arrival.flash_at_seconds < 0.0 || arrival.flash_ramp_seconds < 0.0 ||
        arrival.flash_hold_seconds < 0.0)
      throw_error("SimConfig: arrival flash-crowd times must be nonnegative");
    if (arrival.flash_factor <= 0.0)
      throw_error("SimConfig: arrival.flash_factor must be positive");
  }
  if (arrival.shape == ArrivalShape::kDiurnal) {
    if (arrival.diurnal_period_seconds <= 0.0)
      throw_error("SimConfig: arrival.diurnal_period_seconds must be positive");
    if (arrival.diurnal_amplitude < 0.0 || arrival.diurnal_amplitude >= 1.0)
      throw_error("SimConfig: arrival.diurnal_amplitude must be in [0, 1)");
  }
  if (arrival.churn_period_seconds < 0.0)
    throw_error("SimConfig: arrival.churn_period_seconds must be nonnegative");
  if (overload.shedder == ShedderKind::kStaticCap && overload.static_cap < 1)
    throw_error("SimConfig: overload.static_cap must be >= 1 for kStaticCap");
  if (overload.target_delay_seconds <= 0.0 || overload.delay_window_seconds <= 0.0)
    throw_error("SimConfig: overload delay target/window must be positive");
  if (overload.aimd_increase <= 0.0 || overload.aimd_period_seconds <= 0.0)
    throw_error("SimConfig: overload AIMD increase/period must be positive");
  if (overload.aimd_decrease <= 0.0 || overload.aimd_decrease >= 1.0)
    throw_error("SimConfig: overload.aimd_decrease must be in (0, 1)");
  if (overload.aimd_min_window < 1)
    throw_error("SimConfig: overload.aimd_min_window must be >= 1");
  if (overload.budget_enabled() && overload.retry_budget_burst < 1.0)
    throw_error("SimConfig: overload.retry_budget_burst must be >= 1");
  if (overload.hedge_delay_seconds < 0.0)
    throw_error("SimConfig: overload.hedge_delay_seconds must be nonnegative");
  if (overload.hedging_enabled() && overload.max_hedges < 1)
    throw_error("SimConfig: overload.max_hedges must be >= 1 when hedging");
  if (overload.brownout &&
      (overload.brownout_forward_delay_seconds <= 0.0 ||
       overload.brownout_service_delay_seconds <=
           overload.brownout_forward_delay_seconds))
    throw_error(
        "SimConfig: brownout thresholds must satisfy 0 < forward < service");
  if (!node_speed_factors.empty()) {
    if (node_speed_factors.size() != static_cast<std::size_t>(nodes))
      throw_error("SimConfig: node_speed_factors must have one entry per node");
    for (const double f : node_speed_factors)
      if (f <= 0.0) throw_error("SimConfig: node speed factors must be positive");
  }
}

}  // namespace l2s::core
