#include "l2sim/core/engine/overload.hpp"

#include <algorithm>
#include <cmath>

#include "l2sim/core/engine/admission.hpp"

namespace l2s::core::engine {

void OverloadController::begin_pass() {
  tokens_ = ov().retry_budget_burst;
  window_start_ = ctx_.now();
  window_delay_sum_ = 0.0;
  window_samples_ = 0;
  latched_delay_ = 0.0;
  above_target_ = false;
  arrivals_seen_ = 0;
  aimd_cap_ = static_cast<double>(ctx_.cfg().admission.buffer_slots_per_node) *
              static_cast<double>(ctx_.cfg().nodes);
  aimd_failure_seen_ = false;
  aimd_last_decrease_ = 0;
  if (level_ != 0) {
    // Passes start healthy; reset the policy's brownout posture quietly
    // (measurement statistics are reset separately, nothing to observe).
    level_ = 0;
    ctx_.policy->on_brownout(0);
  }
}

void OverloadController::start() {
  if (!ctx_.measured_pass) return;  // warm-up runs with defenses quiet
  if (ov().shedder == ShedderKind::kAimd)
    ctx_.sched->after(seconds_to_simtime(ov().aimd_period_seconds),
                      [this]() { aimd_tick(); });
}

std::uint64_t OverloadController::window_cap() const {
  const auto floor_cap = static_cast<std::uint64_t>(aimd_cap_);
  return std::max(floor_cap, ov().aimd_min_window);
}

bool OverloadController::admit_arrival() {
  if (!ctx_.measured_pass || !ov().admission_defense()) return true;
  // Re-probe after starvation: if a whole delay window elapsed with *no*
  // samples — nothing completed and nothing failed, which with deadlines
  // armed means the system drained (typically because this shedder starved
  // it) — close the window as healthy. Without this, a 100%-shed latch
  // freezes itself on: shed everything -> no events -> no window ever
  // closes -> shed everything, forever. CoDel's drop state re-probes the
  // queue for the same reason.
  if ((ov().shedder == ShedderKind::kQueueDelay || ov().brownout) &&
      window_samples_ == 0 &&
      ctx_.now() - window_start_ >=
          seconds_to_simtime(ov().delay_window_seconds)) {
    close_window(ctx_.now());
  }
  ++arrivals_seen_;
  // Brownout level 2: shed service — every other arrival is turned away
  // regardless of what the shedder would decide (deterministic modulo
  // drop, no randomness).
  if (level_ >= 2 && (arrivals_seen_ % 2 == 0)) {
    last_shed_cause_ = obs::DecisionCause::kShedBrownout;
    return false;
  }
  switch (ov().shedder) {
    case ShedderKind::kNone:
      return true;
    case ShedderKind::kStaticCap:
      last_shed_cause_ = obs::DecisionCause::kShedStaticCap;
      return ctx_.admission->in_flight() < ov().static_cap;
    case ShedderKind::kQueueDelay:
      last_shed_cause_ = obs::DecisionCause::kShedQueueDelay;
      return !above_target_;
    case ShedderKind::kAimd:
      last_shed_cause_ = obs::DecisionCause::kShedAimd;
      return ctx_.admission->in_flight() < window_cap();
  }
  return true;
}

void OverloadController::earn_token() {
  if (!ctx_.measured_pass || !ov().budget_enabled()) return;
  tokens_ = std::min(ov().retry_budget_burst, tokens_ + ov().retry_budget_ratio);
}

bool OverloadController::try_spend_retry_token() {
  if (!ctx_.measured_pass || !ov().budget_enabled()) return true;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void OverloadController::note_completion(const cluster::Connection& conn,
                                         SimTime now) {
  if (!ctx_.measured_pass) return;
  if (ov().shedder != ShedderKind::kQueueDelay && !ov().brownout) return;
  const double sojourn =
      simtime_to_seconds(now - conn.first_arrival);
  update_delay_signal(sojourn, now);
}

void OverloadController::update_delay_signal(double sojourn_s, SimTime now) {
  window_delay_sum_ += sojourn_s;
  ++window_samples_;
  if (now - window_start_ < seconds_to_simtime(ov().delay_window_seconds)) return;
  close_window(now);
}

void OverloadController::close_window(SimTime now) {
  // Latch the *mean* sojourn across the window, failures included. CoDel
  // latches the windowed minimum, but that presumes one shared queue; a
  // cache cluster is bimodal — hits bypass the loaded disks entirely, so
  // during a miss-storm collapse every window still contains a
  // sub-millisecond hit and the min never trips. The mean sees both
  // populations, and terminal failures (deadline, retries exhausted) drag
  // it up exactly when the cluster is eating requests. An empty window (no
  // completions, no failures) latches zero: nothing was in flight long
  // enough to report, so there is no standing queue.
  latched_delay_ =
      window_samples_ == 0
          ? 0.0
          : window_delay_sum_ / static_cast<double>(window_samples_);
  window_delay_sum_ = 0.0;
  window_samples_ = 0;
  window_start_ = now;

  if (ov().shedder == ShedderKind::kQueueDelay)
    above_target_ = latched_delay_ > ov().target_delay_seconds;

  if (ov().brownout) {
    // Rise to the level whose threshold the latched delay exceeds; fall
    // only once the delay drops below half the threshold that raised the
    // level (hysteresis against flapping).
    const double l1 = ov().brownout_forward_delay_seconds;
    const double l2 = ov().brownout_service_delay_seconds;
    const int up = latched_delay_ >= l2 ? 2 : latched_delay_ >= l1 ? 1 : 0;
    const int down = latched_delay_ < 0.5 * l1   ? 0
                     : latched_delay_ < 0.5 * l2 ? 1
                                                 : 2;
    int next = level_;
    if (up > level_)
      next = up;
    else if (down < level_)
      next = down;
    if (next != level_) set_brownout_level(next);
  }
}

void OverloadController::set_brownout_level(int level) {
  ctx_.note_decision(obs::DecisionKind::kBrownout,
                     level > level_ ? obs::DecisionCause::kBrownoutRaise
                                    : obs::DecisionCause::kBrownoutEase,
                     0, -1, -1, 0, level);
  level_ = level;
  ctx_.policy->on_brownout(level);
}

void OverloadController::note_failure(const cluster::Connection& conn, SimTime now) {
  if (!ctx_.measured_pass) return;
  // Failed requests feed the delay window too: in a full collapse the only
  // completions are the lucky fast ones, so a completion-only estimator
  // reads "healthy" while everything else dies of old age. A request that
  // failed its deadline sat in the system at least that long — that IS the
  // standing-queue signal.
  if (ov().shedder == ShedderKind::kQueueDelay || ov().brownout) {
    update_delay_signal(simtime_to_seconds(now - conn.first_arrival), now);
  }
  if (ov().shedder != ShedderKind::kAimd) return;
  aimd_failure_seen_ = true;
  // Multiplicative decrease at most once per period (one congestion event
  // per RTT in TCP terms), clamped at the minimum window.
  if (now - aimd_last_decrease_ <
      seconds_to_simtime(ov().aimd_period_seconds))
    return;
  aimd_last_decrease_ = now;
  aimd_cap_ = std::max(static_cast<double>(ov().aimd_min_window),
                       aimd_cap_ * ov().aimd_decrease);
}

void OverloadController::aimd_tick() {
  if (ctx_.admission->drained()) return;  // pass over: let the heap empty
  const double full =
      static_cast<double>(ctx_.cfg().admission.buffer_slots_per_node) *
      static_cast<double>(ctx_.cfg().nodes);
  if (!aimd_failure_seen_)
    aimd_cap_ = std::min(full, aimd_cap_ + ov().aimd_increase);
  aimd_failure_seen_ = false;
  ctx_.sched->after(seconds_to_simtime(ov().aimd_period_seconds),
                    [this]() { aimd_tick(); });
}

}  // namespace l2s::core::engine
