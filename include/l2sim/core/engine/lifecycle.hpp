// Request-lifecycle vocabulary shared by the engine components: the
// connection state machine (cluster::ConnectionState), the connection
// handle (ConnRef), the attempt-staleness guard, and the LifecycleObserver
// interface through which the engine publishes every lifecycle event, as
// one decision record, without knowing who listens (metrics, availability
// tracking, telemetry, the flight recorder).
#pragma once

#include <cstdint>

#include "l2sim/cluster/connection.hpp"
#include "l2sim/common/units.hpp"
#include "l2sim/core/engine/connection_pool.hpp"
#include "l2sim/obs/decision.hpp"

namespace l2s::core::engine {

using cluster::ConnectionState;

/// A callback belongs to a superseded attempt (or a finished request).
/// Every event the engine schedules on behalf of an attempt captures the
/// attempt id and checks this first. A closed or failed connection's slot
/// has been released, perhaps to another connection, so its handle is
/// stale; kDone is absorbing.
[[nodiscard]] inline bool attempt_stale(ConnRef conn, std::uint32_t att) {
  return conn.stale() || conn->state == ConnectionState::kDone || conn->attempt != att;
}

/// A sink on the engine's lifecycle event stream. Every lifecycle event
/// (dispatch, completion, failure, connection close, retry, hedge, shed,
/// brownout, migration, remote fetch, the fault timeline, ...) reaches the
/// sinks once, as one obs::DecisionRecord emitted by
/// EngineContext::note_decision. Handlers must not schedule events or
/// mutate engine state: sinks exist so that statistics, availability
/// tracking, telemetry and the flight recorder stay out of the simulation
/// path, and adding one can never perturb event order.
class LifecycleObserver {
 public:
  virtual ~LifecycleObserver() = default;

  /// One lifecycle event. `conn` is the request's connection for
  /// kComplete, kFailure and kClose, and null for every other kind.
  virtual void on_event(const obs::DecisionRecord& record,
                        const cluster::Connection* conn) = 0;
  /// The periodic load sampler ticked (MetricsCollector::sample_loads).
  /// Telemetry probes ride this existing event instead of scheduling their
  /// own, so enabling them cannot change the event stream.
  virtual void on_load_sample(SimTime /*now*/) {}
};

}  // namespace l2s::core::engine
