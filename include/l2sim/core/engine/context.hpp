// EngineContext: the wiring loom of the decomposed simulation engine.
//
// The coordinator (core::ClusterSimulation) owns the simulated hardware
// and one instance of every engine component; each component receives a
// reference to this context and reaches its collaborators exclusively
// through it. Components never own each other, so the request lifecycle
// can flow ArrivalSource -> Dispatcher -> ServicePath -> PersistentPath
// with RetryManager re-entering the cycle on failures, without a single
// circular include.
#pragma once

#include <memory>
#include <vector>

#include "l2sim/cluster/node.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/core/config.hpp"
#include "l2sim/core/engine/lifecycle.hpp"
#include "l2sim/des/scheduler.hpp"
#include "l2sim/net/router.hpp"
#include "l2sim/net/via.hpp"
#include "l2sim/policy/policy.hpp"
#include "l2sim/trace/trace.hpp"

namespace l2s::core::engine {

class ArrivalSource;
class AdmissionController;
class Dispatcher;
class RetryManager;
class ServicePath;
class PersistentPath;
class OverloadController;

struct EngineContext {
  // Simulated hardware and configuration (owned by the coordinator).
  const SimConfig* config = nullptr;
  const trace::Trace* trace = nullptr;
  des::Scheduler* sched = nullptr;
  net::Router* router = nullptr;
  net::ViaNetwork* via = nullptr;
  /// The interconnect (owned by the coordinator); telemetry reads per-link
  /// utilization off it, the engine itself only talks through `via`.
  net::Topology* topology = nullptr;
  /// Flow-level bulk-transfer network (null unless topology.flow_level).
  net::FlowNetwork* flow = nullptr;
  policy::Policy* policy = nullptr;
  std::vector<std::unique_ptr<cluster::Node>>* nodes = nullptr;
  /// The simulation's own random stream (connection lengths, DNS skew,
  /// open-loop gaps). Exactly one component draws at a time, so sharing
  /// the stream keeps the draw order identical to the monolithic engine.
  Rng* rng = nullptr;
  /// Every open client connection (ArrivalSource acquires, ServicePath and
  /// RetryManager release).
  ConnectionPool* conns = nullptr;

  // Engine components (owned by the coordinator, wired here).
  ArrivalSource* arrival = nullptr;
  AdmissionController* admission = nullptr;
  Dispatcher* dispatcher = nullptr;
  RetryManager* retry = nullptr;
  ServicePath* service = nullptr;
  PersistentPath* persistent = nullptr;
  /// Overload defenses (admission shedding, retry budget, brownout); always
  /// wired, inert unless SimConfig::overload enables a defense.
  OverloadController* overload = nullptr;
  /// The sinks every lifecycle event reaches, in registration order
  /// (metrics and availability, then telemetry, then the flight recorder).
  std::vector<LifecycleObserver*> sinks;

  /// False during the warm-up pass, true for the measured pass. Warm-up is
  /// the paper's cache-warming protocol — nominal stationary load, no
  /// faults (arm_faults already waits for the measured pass), no arrival
  /// shaping and no overload defenses — so the measured pass starts from
  /// the warm steady state the chaos is supposed to disrupt.
  bool measured_pass = false;

  [[nodiscard]] const SimConfig& cfg() const { return *config; }
  [[nodiscard]] SimTime now() const { return sched->now(); }
  [[nodiscard]] cluster::Node& node(int id) const {
    return *(*nodes)[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] bool node_alive(int id) const { return node(id).alive(); }

  /// Emit one lifecycle event to every sink: the engine's only emit call.
  /// Stamps the current simulated time and pass. `conn` is the request's
  /// connection for kComplete, kFailure and kClose. Pure notification —
  /// sinks are passive, so calling this never perturbs the event stream
  /// (which is what keeps metrics, telemetry and the recorder digest-inert).
  void note_decision(obs::DecisionKind kind, obs::DecisionCause cause,
                     std::uint64_t request, int node, int target = -1,
                     std::uint32_t attempt = 0, std::int64_t detail = 0,
                     const cluster::Connection* conn = nullptr) const {
    obs::DecisionRecord rec;
    rec.time = now();
    rec.request = request;
    rec.node = node;
    rec.target = target;
    rec.detail = detail;
    rec.attempt = attempt;
    rec.kind = kind;
    rec.cause = cause;
    rec.pass = measured_pass ? 1 : 0;
    for (LifecycleObserver* sink : sinks) sink->on_event(rec, conn);
  }
};

}  // namespace l2s::core::engine
