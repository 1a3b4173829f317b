// RetryManager: the client-side robustness machinery — capped exponential
// backoff between attempts, the per-attempt timeout, the per-request
// deadline, and the final transition of a request into one of the failure
// buckets. Owns every path that marks a connection kDone without a
// completed reply.
//
// Overload integration: every retry and every hedge must buy a token from
// the OverloadController's bucket first (retries earn budget only as
// admitted requests arrive, so a failure storm cannot amplify itself), and
// arm_hedge() speculatively re-dispatches a request that lingers past the
// hedge delay — backup-request-with-cancellation adapted to the engine's
// one-live-attempt invariant: the straggler attempt is abandoned (its
// events go stale via the attempt counter) and the hedge becomes the one
// live attempt.
#pragma once

#include "l2sim/core/engine/context.hpp"

namespace l2s::core::engine {

class RetryManager {
 public:
  explicit RetryManager(EngineContext& ctx) : ctx_(ctx) {}

  /// Abort the connection's current attempt (its node crashed, or the
  /// policy produced no decision): retried if the client has retry budget
  /// left, otherwise the client sees a failure and the admission slot
  /// frees after the client timeout. Idempotent. `cause` attributes the
  /// abort in the decision log (entry node down, no policy target, ...).
  void abort_connection(ConnRef conn, obs::DecisionCause cause);

  /// Consume retry budget and schedule the next attempt after backoff.
  void schedule_retry(ConnRef conn, obs::DecisionCause cause);

  /// Arm the per-request deadline (measured from the current request's
  /// arrival); re-armed by each request on a persistent connection.
  void arm_deadline(ConnRef conn);

  /// Arm the per-attempt timeout for the connection's current attempt: an
  /// attempt that hangs (lost hand-off, dead node, glacial queue) is
  /// abandoned and retried or failed. No-op when not configured.
  void arm_attempt_timeout(ConnRef conn);

  /// Arm the hedge timer for the current request: if it is still the same
  /// request and attempt after overload.hedge_delay_seconds, abandon the
  /// straggling attempt and re-dispatch (spending a retry token). Armed
  /// per request (arrival and each persistent pull); re-arms itself up to
  /// overload.max_hedges times. No-op when hedging is off.
  void arm_hedge(ConnRef conn);

  /// Final failure: mark kDone, emit a kFailure record with `cause`
  /// (kDeadlineExpired or kRetriesExhausted), free the admission slot after
  /// `slot_hold` (0 = immediately), then release the connection's pool slot.
  void fail_connection(ConnRef conn, obs::DecisionCause cause, SimTime slot_hold);

 private:
  EngineContext& ctx_;
};

}  // namespace l2s::core::engine
