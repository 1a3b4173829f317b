#include "l2sim/core/engine/arrival.hpp"

#include <algorithm>
#include <cmath>

#include "l2sim/core/engine/admission.hpp"
#include "l2sim/core/engine/dispatch.hpp"
#include "l2sim/core/engine/overload.hpp"
#include "l2sim/core/engine/retry.hpp"

namespace l2s::core::engine {

void ArrivalSource::start() {
  pass_start_ = ctx_.now();
  if (ctx_.cfg().arrival.open_loop_rate > 0.0) {
    // Open loop: a Poisson pump admits requests at the configured rate;
    // the injector tracks the trace cursor and in-flight slots only.
    ctx_.sched->after(0, [this]() { open_loop_arrival(); });
  } else {
    ctx_.admission->begin_replay(
        [this](std::uint64_t seq, const trace::Request& r) { inject(seq, r); });
  }
}

double ArrivalSource::pass_seconds() const {
  return simtime_to_seconds(ctx_.now() - pass_start_);
}

void ArrivalSource::apply_churn(trace::Request& r) const {
  const auto& a = ctx_.cfg().arrival;
  if (!a.churn_enabled() || !ctx_.measured_pass) return;
  // The popularity ranking rotates by churn_stride ids per period: the file
  // that was rank k is now rank (k + shift) mod count, so the hot head of
  // the Zipf ranking moves through the catalogue and warmed caches go
  // stale — the non-stationary miss transient the Olmos model predicts.
  const std::uint64_t count = ctx_.trace->files().count();
  if (count == 0) return;
  const auto periods = static_cast<std::uint64_t>(
      pass_seconds() / a.churn_period_seconds);
  const std::uint64_t shift = (periods * a.churn_stride) % count;
  if (shift == 0) return;
  r.file = static_cast<trace::FileId>((r.file + shift) % count);
  // Requests may be partial GETs; keep the transferred bytes but never
  // exceed the remapped file's size.
  r.bytes = std::min(r.bytes, ctx_.trace->files().size_of(r.file));
}

void ArrivalSource::open_loop_arrival() {
  const auto& a = ctx_.cfg().arrival;
  const bool shaped =
      a.shape != ArrivalShape::kStationary && ctx_.measured_pass;
  // Lewis-Shedler thinning: candidates arrive at the peak rate and are
  // accepted with probability rate(t)/peak, yielding an inhomogeneous
  // Poisson process from a single deterministic stream. The stationary
  // path skips the acceptance draw entirely, preserving the exact draw
  // sequence the golden digests pin.
  const bool candidate_accepted =
      !shaped ||
      ctx_.rng->next_double() <
          a.shape_multiplier(pass_seconds()) / a.peak_multiplier();
  if (candidate_accepted) {
    if (!ctx_.overload->admit_arrival()) {
      // The shedder turned the arrival away before the admission window:
      // deliberate load drop, counted separately from buffer overflow.
      if (!ctx_.admission->exhausted()) ctx_.admission->shed_arrival();
    } else {
      std::uint64_t seq = 0;
      trace::Request r{};
      if (ctx_.admission->try_admit(seq, r)) {
        inject(seq, r);
      } else if (!ctx_.admission->exhausted()) {
        // The admission buffers are full: the arrival is refused and the
        // request it would have carried is counted as failed
        // (finite-buffer semantics above saturation).
        ctx_.admission->reject_overflow();
      }
    }
  }
  if (!ctx_.admission->exhausted()) {
    const double pump_rate =
        a.open_loop_rate * (shaped ? a.peak_multiplier() : 1.0);
    const SimTime gap = seconds_to_simtime(ctx_.rng->next_exponential(pump_rate));
    ctx_.sched->after(gap, [this]() { open_loop_arrival(); });
  }
}

std::uint32_t ArrivalSource::sample_connection_length() {
  const double mean = ctx_.cfg().persistence.mean_requests_per_connection;
  if (mean <= 1.0) return 1;
  // Geometric on {1, 2, ...} with the requested mean.
  const double p = 1.0 / mean;
  double u = ctx_.rng->next_double();
  while (u <= 0.0) u = ctx_.rng->next_double();
  const double k = std::floor(std::log(u) / std::log(1.0 - p));
  return 1 + static_cast<std::uint32_t>(std::min(k, 1e6));
}

void ArrivalSource::inject(std::uint64_t seq, const trace::Request& r) {
  const ConnRef conn = ctx_.conns->acquire();
  conn->id = seq;
  conn->request = r;
  apply_churn(conn->request);
  conn->first_arrival = ctx_.now();
  ctx_.overload->earn_token();
  ctx_.dispatcher->start_attempt(conn);
  conn->remaining_requests = sample_connection_length() - 1;
  ctx_.retry->arm_deadline(conn);
  ctx_.retry->arm_hedge(conn);
}

}  // namespace l2s::core::engine
