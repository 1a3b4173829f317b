#include "l2sim/core/engine/retry.hpp"

#include <algorithm>

#include "l2sim/core/engine/admission.hpp"
#include "l2sim/core/engine/dispatch.hpp"
#include "l2sim/core/engine/overload.hpp"
#include "l2sim/core/engine/service_path.hpp"

namespace l2s::core::engine {

void RetryManager::fail_connection(ConnRef conn, obs::DecisionCause cause,
                                   SimTime slot_hold) {
  if (conn->state == ConnectionState::kDone) return;
  ctx_.service->release_service_count(conn);
  conn->state = ConnectionState::kDone;
  ctx_.overload->note_failure(*conn, ctx_.now());
  ctx_.note_decision(obs::DecisionKind::kFailure, cause, conn->id, conn->entry_node,
                     conn->service_node, conn->attempt,
                     static_cast<std::int64_t>(conn->retries_used), conn.get());
  ctx_.admission->release_after(slot_hold);
  ctx_.conns->release(conn);
}

void RetryManager::abort_connection(ConnRef conn, obs::DecisionCause cause) {
  if (conn->state == ConnectionState::kDone) return;
  const bool retries_left =
      conn->retries_used < static_cast<std::uint32_t>(ctx_.cfg().retry.max_retries);
  if (retries_left && ctx_.overload->try_spend_retry_token()) {
    ctx_.service->release_service_count(conn);
    schedule_retry(conn, cause);
    return;
  }
  // Retries remained but the budget had no token: that distinction (deny
  // vs. genuinely exhausted) is exactly what the decision log is for.
  if (retries_left) {
    ctx_.note_decision(obs::DecisionKind::kBudgetDeny, obs::DecisionCause::kBudgetDeniedRetry,
                       conn->id, conn->entry_node, -1, conn->attempt,
                       static_cast<std::int64_t>(cause));
  }
  // The client holds the connection until its timeout expires; only then
  // does the admission slot free up for the next request.
  fail_connection(conn, obs::DecisionCause::kRetriesExhausted,
                  seconds_to_simtime(ctx_.cfg().failure_client_timeout_seconds));
}

void RetryManager::schedule_retry(ConnRef conn, obs::DecisionCause cause) {
  ++conn->retries_used;
  ++conn->attempt;
  ctx_.note_decision(obs::DecisionKind::kRetry, cause, conn->id, conn->entry_node, -1,
                     conn->attempt, static_cast<std::int64_t>(conn->retries_used));
  conn->state = ConnectionState::kRetryBackoff;
  const auto& rp = ctx_.cfg().retry;
  double backoff = rp.initial_backoff_seconds;
  for (std::uint32_t i = 1; i < conn->retries_used; ++i) backoff *= rp.backoff_multiplier;
  backoff = std::min(backoff, rp.max_backoff_seconds);
  const auto att = conn->attempt;
  ctx_.sched->after(seconds_to_simtime(backoff), [this, conn, att]() {
    if (attempt_stale(conn, att)) return;  // the deadline fired during backoff
    ctx_.dispatcher->start_attempt(conn);
  });
}

void RetryManager::arm_deadline(ConnRef conn) {
  const double ddl = ctx_.cfg().retry.deadline_seconds;
  if (ddl <= 0.0) return;
  conn->deadline_at = ctx_.now() + seconds_to_simtime(ddl);
  const SimTime target = conn->deadline_at;
  ctx_.sched->after(seconds_to_simtime(ddl), [this, conn, target]() {
    if (conn.stale() || conn->state == ConnectionState::kDone) return;
    if (conn->deadline_at != target) return;  // a later request re-armed it
    fail_connection(conn, obs::DecisionCause::kDeadlineExpired, 0);
  });
}

void RetryManager::arm_attempt_timeout(ConnRef conn) {
  if (ctx_.cfg().retry.attempt_timeout_seconds <= 0.0) return;
  const auto att = conn->attempt;
  ctx_.sched->after(seconds_to_simtime(ctx_.cfg().retry.attempt_timeout_seconds),
                    [this, conn, att]() {
                      if (attempt_stale(conn, att)) return;
                      // The attempt hangs (lost hand-off, dead node, glacial
                      // queue): abandon it and retry or give up.
                      ctx_.service->release_service_count(conn);
                      const bool retries_left =
                          conn->retries_used <
                          static_cast<std::uint32_t>(ctx_.cfg().retry.max_retries);
                      if (retries_left && ctx_.overload->try_spend_retry_token()) {
                        schedule_retry(conn, obs::DecisionCause::kAttemptTimeout);
                      } else {
                        if (retries_left) {
                          ctx_.note_decision(
                              obs::DecisionKind::kBudgetDeny,
                              obs::DecisionCause::kBudgetDeniedRetry, conn->id,
                              conn->entry_node, -1, conn->attempt,
                              static_cast<std::int64_t>(
                                  obs::DecisionCause::kAttemptTimeout));
                        }
                        fail_connection(conn, obs::DecisionCause::kRetriesExhausted, 0);
                      }
                    });
}

void RetryManager::arm_hedge(ConnRef conn) {
  const auto& ov = ctx_.cfg().overload;
  if (!ctx_.measured_pass || !ov.hedging_enabled()) return;
  if (conn->hedges_used >= static_cast<std::uint32_t>(ov.max_hedges)) return;
  const auto att = conn->attempt;
  const auto id = conn->id;
  ctx_.sched->after(
      seconds_to_simtime(ov.hedge_delay_seconds), [this, conn, att, id]() {
        // Still the same live attempt (not completed, failed, retried or
        // waiting out a backoff) of the same request (persistent
        // connections carry several)?
        if (attempt_stale(conn, att) || conn->id != id) return;
        if (!ctx_.overload->try_spend_retry_token()) {
          ctx_.note_decision(obs::DecisionKind::kBudgetDeny,
                             obs::DecisionCause::kBudgetDeniedHedge, conn->id,
                             conn->entry_node, -1, conn->attempt);
          return;
        }
        // Hedge: abandon the straggling attempt (its queued events go
        // stale via the attempt counter) and re-dispatch. The engine's
        // one-live-attempt invariant makes this
        // backup-request-with-cancellation rather than true tied requests:
        // the straggler is cancelled the moment the backup launches.
        ++conn->hedges_used;
        ctx_.service->release_service_count(conn);
        ++conn->attempt;
        ctx_.note_decision(obs::DecisionKind::kHedge, obs::DecisionCause::kHedgeFired,
                           conn->id, conn->entry_node, -1, conn->attempt,
                           static_cast<std::int64_t>(conn->hedges_used));
        ctx_.dispatcher->start_attempt(conn);
        arm_hedge(conn);
      });
}

}  // namespace l2s::core::engine
