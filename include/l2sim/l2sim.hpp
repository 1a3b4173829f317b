// l2sim — umbrella header.
//
// A library for modeling and simulating cluster-based network servers,
// reproducing Carrera & Bianchini, "Evaluating Cluster-Based Network
// Servers" (HPDC 2000):
//
//   * l2s::model     — analytic open-queueing-network model (Section 3)
//   * l2s::analytic  — Che-approximation miss curves, hierarchical hybrid
//                      solver and DES cell planner (the analytic fast path)
//   * l2s::core      — trace-driven cluster simulator (Section 5)
//   * l2s::policy    — traditional / LARD / L2S request distribution
//   * l2s::trace     — trace IO, synthesis and characterization
//   * l2s::zipf      — Zipf-like popularity math
//   * l2s::queueing  — M/M/1 and open Jackson networks
//   * l2s::des       — discrete-event simulation kernel
//   * l2s::fault     — deterministic fault injection & failure detection
//   * l2s::telemetry — metrics registry, span recorder, trace exporters
//   * l2s::obs       — flight recorder, decision log, divergence debugger
//   * l2s::net, l2s::storage, l2s::cache, l2s::cluster — substrates
#pragma once

#include "l2sim/analytic/che.hpp"
#include "l2sim/analytic/hierarchical.hpp"
#include "l2sim/analytic/planner.hpp"
#include "l2sim/analytic/popularity.hpp"
#include "l2sim/analytic/transient.hpp"
#include "l2sim/cache/gdsf_cache.hpp"
#include "l2sim/cache/lru_cache.hpp"
#include "l2sim/cache/stack_distance.hpp"
#include "l2sim/common/csv.hpp"
#include "l2sim/common/env.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/common/table.hpp"
#include "l2sim/common/units.hpp"
#include "l2sim/core/config.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/metrics.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/core/report.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/core/spec.hpp"
#include "l2sim/fault/detector.hpp"
#include "l2sim/fault/plan.hpp"
#include "l2sim/fault/runtime.hpp"
#include "l2sim/stats/availability.hpp"
#include "l2sim/telemetry/config.hpp"
#include "l2sim/telemetry/exporters.hpp"
#include "l2sim/telemetry/metrics.hpp"
#include "l2sim/telemetry/probe.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/telemetry/sim_telemetry.hpp"
#include "l2sim/telemetry/span.hpp"
#include "l2sim/obs/config.hpp"
#include "l2sim/obs/decision.hpp"
#include "l2sim/obs/diff.hpp"
#include "l2sim/obs/exporters.hpp"
#include "l2sim/obs/recorder.hpp"
#include "l2sim/model/cluster_model.hpp"
#include "l2sim/model/latency.hpp"
#include "l2sim/model/parameters.hpp"
#include "l2sim/model/surface.hpp"
#include "l2sim/model/trace_model.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/policy/consistent_hash.hpp"
#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/lard_dispatcher.hpp"
#include "l2sim/policy/policy.hpp"
#include "l2sim/policy/round_robin.hpp"
#include "l2sim/policy/traditional.hpp"
#include "l2sim/queueing/jackson.hpp"
#include "l2sim/queueing/mm1.hpp"
#include "l2sim/queueing/mg1.hpp"
#include "l2sim/queueing/mmc.hpp"
#include "l2sim/trace/binary_io.hpp"
#include "l2sim/trace/characterize.hpp"
#include "l2sim/trace/clf_reader.hpp"
#include "l2sim/trace/synthetic.hpp"
#include "l2sim/trace/trace.hpp"
#include "l2sim/zipf/harmonic.hpp"
#include "l2sim/zipf/sampler.hpp"
#include "l2sim/zipf/zipf.hpp"
