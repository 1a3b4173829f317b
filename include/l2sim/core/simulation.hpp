// ClusterSimulation: the trace-driven discrete-event simulator of a
// cluster-based network server (Section 5 of the paper) — a slim
// coordinator over the engine components in l2sim/core/engine/:
//
//   ArrivalSource        how requests enter (saturation replay / Poisson)
//   AdmissionController  the bounded in-flight window + drop accounting
//   Dispatcher           entry selection, parse, policy decision, hand-off
//   ServicePath          cache/disk service, reply path, completion
//   PersistentPath       HTTP/1.1 requests: migration or remote fetch
//   RetryManager         backoff, attempt timeout, deadline, failure
//   OverloadController   shedding, retry budget, hedging, brownout
//   MetricsCollector     every statistic, a fold over the event stream
//
// The coordinator owns the simulated hardware (scheduler, nodes, router,
// interconnect topology, VIA), wires the components through an
// EngineContext, and
// runs the paper's measurement protocol: warm the caches by simulating the
// trace once, reset statistics, then replay the same trace under
// saturation to measure maximum throughput. Faults (crashes, fail-slow,
// message faults) and their detection are armed around the measured pass.
#pragma once

#include <memory>
#include <vector>

#include "l2sim/cluster/node.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/core/config.hpp"
#include "l2sim/core/engine/context.hpp"
#include "l2sim/core/metrics.hpp"
#include "l2sim/des/scheduler.hpp"
#include "l2sim/fault/detector.hpp"
#include "l2sim/fault/runtime.hpp"
#include "l2sim/net/flow.hpp"
#include "l2sim/net/router.hpp"
#include "l2sim/net/topology.hpp"
#include "l2sim/net/via.hpp"
#include "l2sim/policy/policy.hpp"
#include "l2sim/trace/trace.hpp"

namespace l2s::telemetry {
class SimTelemetry;
}  // namespace l2s::telemetry

namespace l2s::obs {
class FlightRecorder;
}  // namespace l2s::obs

namespace l2s::core {

namespace engine {
class MetricsCollector;
}  // namespace engine

class ClusterSimulation {
 public:
  ClusterSimulation(SimConfig config, const trace::Trace& trace,
                    std::unique_ptr<policy::Policy> policy);
  ~ClusterSimulation();

  ClusterSimulation(const ClusterSimulation&) = delete;
  ClusterSimulation& operator=(const ClusterSimulation&) = delete;

  /// Run (warm-up pass if configured, then the measured pass) and return
  /// the measured results. May be called once per instance.
  SimResult run();

  // --- component access (tests, custom analyses) -------------------------
  [[nodiscard]] policy::Policy& policy() { return *policy_; }
  [[nodiscard]] cluster::Node& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  /// The run's event scheduler (every component schedules on it).
  [[nodiscard]] des::Scheduler& scheduler() { return sched_; }
  /// The interconnect the run was built on (never null).
  [[nodiscard]] net::Topology& topology() { return *topo_; }
  /// The VIA messaging layer over that interconnect.
  [[nodiscard]] net::ViaNetwork& via() { return via_; }
  /// The flow-level bulk network (null unless config.topology.flow_level).
  [[nodiscard]] net::FlowNetwork* flow_network() { return flow_.get(); }
  [[nodiscard]] const SimConfig& config() const { return config_; }
  /// The run's telemetry bridge (null unless config.telemetry.enabled).
  [[nodiscard]] telemetry::SimTelemetry* telemetry() { return telemetry_.get(); }
  /// The run's flight recorder (null unless config.obs records).
  [[nodiscard]] obs::FlightRecorder* recorder() { return recorder_.get(); }

 private:
  /// One pass: open an admission window, start arrivals (and the load
  /// sampler), drain the scheduler.
  void replay_trace();
  /// Interpret the fault plan and start detection for the measured pass.
  void arm_faults(SimTime measure_start);
  /// End of warm-up: zero hardware stats, policy counters and metrics.
  void reset_statistics();

  SimConfig config_;
  const trace::Trace& trace_;
  // Declared before the hardware below, which binds it in its
  // constructors.
  des::Scheduler sched_;
  std::unique_ptr<net::Topology> topo_;
  net::Router router_;
  net::ViaNetwork via_;
  /// Flow-level bulk transfers (only when config.topology.flow_level).
  std::unique_ptr<net::FlowNetwork> flow_;
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
  std::unique_ptr<policy::Policy> policy_;
  std::unique_ptr<fault::FaultRuntime> fault_runtime_;
  std::unique_ptr<fault::FailureDetector> detector_;
  Rng rng_{0};  ///< simulation random stream (seeded from config)

  /// Every open client connection; engine continuations hold ConnRef
  /// handles into it.
  engine::ConnectionPool conns_;
  // Engine components (wired through ctx_; declaration order is
  // construction order, so ctx_ comes first).
  engine::EngineContext ctx_;
  std::unique_ptr<engine::AdmissionController> admission_;
  std::unique_ptr<engine::ArrivalSource> arrival_;
  std::unique_ptr<engine::Dispatcher> dispatcher_;
  std::unique_ptr<engine::RetryManager> retry_;
  std::unique_ptr<engine::ServicePath> service_;
  std::unique_ptr<engine::PersistentPath> persistent_;
  /// Overload defenses (SimConfig::overload); always wired, schedules
  /// nothing and touches nothing unless a defense is enabled.
  std::unique_ptr<engine::OverloadController> overload_;
  std::unique_ptr<engine::MetricsCollector> metrics_;
  /// Observability bridge; only constructed (and registered as a sink)
  /// when config.telemetry.enabled — the disabled path has no telemetry
  /// code at all.
  std::unique_ptr<telemetry::SimTelemetry> telemetry_;
  /// Flight recorder; only constructed (and registered as a sink) when
  /// config.obs.enabled or a DecisionSink is wired.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  bool ran_ = false;
};

}  // namespace l2s::core
