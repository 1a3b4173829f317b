// Results of one simulation run: the quantities the paper's evaluation
// section reports (throughput, miss rates, CPU idle times, forwarded
// fraction) plus supporting detail.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace l2s::telemetry {
struct Snapshot;
}  // namespace l2s::telemetry

namespace l2s::obs {
struct DecisionTrace;
}  // namespace l2s::obs

namespace l2s::core {

struct SimResult {
  std::string policy;
  std::string trace;
  int nodes = 0;

  std::uint64_t completed = 0;
  double elapsed_seconds = 0.0;
  double throughput_rps = 0.0;

  double hit_rate = 0.0;
  double miss_rate = 0.0;

  std::uint64_t forwarded = 0;
  double forwarded_fraction = 0.0;

  /// Persistent-connection accounting (== completed with HTTP/1.0).
  std::uint64_t connections = 0;
  std::uint64_t migrations = 0;      ///< connection hand-offs between nodes
  std::uint64_t remote_fetches = 0;  ///< back-end request forwardings

  /// Requests the cluster failed to serve (availability studies). The
  /// total always equals the sum of the four buckets below.
  std::uint64_t failed = 0;
  std::uint64_t failed_deadline = 0;   ///< client deadline expired
  std::uint64_t failed_retries_exhausted = 0;  ///< every attempt died
  std::uint64_t failed_rejected = 0;   ///< open-loop arrival found buffers full
  std::uint64_t failed_shed = 0;       ///< overload shedder turned it away

  /// Client-side retry accounting (all zero unless SimConfig::retry is on).
  std::uint64_t completed_after_retry = 0;  ///< completions needing >= 1 retry
  std::uint64_t retry_attempts = 0;         ///< re-submissions performed
  /// Mean attempts per request: 1.0 = no retries anywhere.
  double retry_amplification = 0.0;

  /// Overload-defense accounting (all zero unless SimConfig::overload
  /// enables a defense — the golden digests rely on that).
  std::uint64_t hedge_attempts = 0;        ///< speculative backup dispatches
  std::uint64_t brownout_transitions = 0;  ///< brownout level changes
  int brownout_final_level = 0;            ///< level at end of measured pass

  /// Fault-layer message accounting (VIA).
  std::uint64_t via_dropped = 0;
  std::uint64_t via_duplicated = 0;
  std::uint64_t via_delayed = 0;
  std::uint64_t heartbeats = 0;  ///< heartbeat broadcasts sent by the detector

  /// Availability timings (0 when no crash/recovery was observed).
  double detection_latency_ms = 0.0;  ///< crash -> policies told, mean
  double time_to_recover_ms = 0.0;    ///< restart -> readmitted, mean

  /// Per-interval goodput timeline of the measured pass (empty unless
  /// SimConfig::goodput_interval_seconds > 0).
  std::vector<double> goodput_rps;
  double goodput_interval_seconds = 0.0;

  /// Mean over nodes of (1 - CPU utilization) during the measured pass.
  double cpu_idle_fraction = 0.0;
  std::vector<double> node_cpu_utilization;

  /// Load imbalance across nodes, sampled periodically during the run:
  /// mean coefficient of variation (stddev/mean) of the per-node
  /// open-connection counts, and mean max/mean ratio. 0 = perfect balance.
  double load_cov = 0.0;
  double load_max_over_mean = 0.0;

  double mean_response_ms = 0.0;
  double max_response_ms = 0.0;
  double p50_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double p99_response_ms = 0.0;

  /// Mean per-request time in each lifecycle stage (ms); the four parts
  /// sum to mean_response_ms.
  double stage_entry_ms = 0.0;    ///< router/NI/parse incl. queueing + decision
  double stage_forward_ms = 0.0;  ///< hand-off wire + CPU (0 when local)
  double stage_disk_ms = 0.0;     ///< disk queue + transfer (0 on hits)
  double stage_reply_ms = 0.0;    ///< reply CPU/NI/router incl. queueing

  std::uint64_t via_messages = 0;
  std::uint64_t load_broadcasts = 0;
  std::uint64_t locality_broadcasts = 0;

  /// Detached telemetry of the measured pass (metrics registry, sampled
  /// spans, fault timeline). Null unless SimConfig::telemetry.enabled;
  /// shared so SimResult stays cheaply copyable.
  std::shared_ptr<const telemetry::Snapshot> telemetry;

  /// Flight-recorder decision log (oldest-first retained window). Null
  /// unless SimConfig::obs.enabled; like `telemetry` it is deliberately
  /// NOT folded into result_digest — recording is an observation of the
  /// run, never part of its identity.
  std::shared_ptr<const obs::DecisionTrace> decisions;

  /// One-paragraph human-readable summary.
  [[nodiscard]] std::string describe() const;
};

/// Bit-exact 64-bit digest of everything a run reports: completion and
/// failure buckets, throughput, latency quantiles, stage breakdown,
/// imbalance statistics, per-node utilizations and the VIA message
/// counters (doubles folded bit-for-bit). The golden-digest regression
/// net (tests/test_golden_results.cpp) pins engine behaviour with it —
/// any reordered event or RNG draw shows up as a digest mismatch.
[[nodiscard]] std::uint64_t result_digest(const SimResult& r);

/// result_digest rendered as 16 lowercase hex digits.
[[nodiscard]] std::string result_digest_hex(const SimResult& r);

}  // namespace l2s::core
