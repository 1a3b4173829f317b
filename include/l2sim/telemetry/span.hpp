// Per-request span capture: every sampled request leaves one Span carrying
// its lifecycle timestamps (arrival -> admission/dispatch decision ->
// hand-off -> cache-or-disk -> reply) plus node ids, the policy verdict and
// the fault epoch it completed under. Spans land in a bounded ring buffer;
// sampling is a deterministic pure function of the request id, so the
// recorded span set replays bit-identically run over run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "l2sim/common/ring.hpp"
#include "l2sim/common/units.hpp"

namespace l2s::telemetry {

/// How the request's story ended, folding in the dispatch decision for
/// completions and the failure bucket for failures.
enum class SpanVerdict : std::uint8_t {
  kLocal,             ///< completed at its entry node
  kForwarded,         ///< completed after a hand-off / remote service
  kDeadline,          ///< failed: per-request deadline expired
  kRetriesExhausted,  ///< failed: every attempt died
};

[[nodiscard]] constexpr const char* span_verdict_name(SpanVerdict v) {
  switch (v) {
    case SpanVerdict::kLocal: return "local";
    case SpanVerdict::kForwarded: return "forwarded";
    case SpanVerdict::kDeadline: return "failed-deadline";
    case SpanVerdict::kRetriesExhausted: return "failed-retries";
  }
  return "?";
}

struct Span {
  std::uint64_t request_id = 0;
  std::int32_t entry_node = -1;
  std::int32_t service_node = -1;  ///< -1 when the request died before dispatch
  SpanVerdict verdict = SpanVerdict::kLocal;
  bool cache_hit = false;
  std::uint32_t attempt = 0;       ///< attempt the story ended on (0 = first try)
  std::uint32_t retries_used = 0;
  /// Fault epoch: how many fault-timeline transitions (crash, repair,
  /// detection, readmission) preceded this span's end.
  std::uint32_t fault_epoch = 0;

  /// Lifecycle timestamps of the final attempt (SimTime ns). For failures
  /// the tail timestamps stay 0 and `completion` is the failure time.
  SimTime first_arrival = 0;  ///< first attempt's arrival (deadline anchor)
  SimTime arrival = 0;
  SimTime decided = 0;    ///< policy decision done (entry parse + dispatch)
  SimTime service = 0;    ///< service start at the service node
  SimTime disk_done = 0;  ///< disk read complete (== service on cache hits)
  SimTime completion = 0;

  [[nodiscard]] bool failed() const {
    return verdict == SpanVerdict::kDeadline || verdict == SpanVerdict::kRetriesExhausted;
  }

  // Per-resource breakdown of the final attempt, in milliseconds — the
  // same four stages MetricsCollector averages into SimResult::stage_*.
  [[nodiscard]] double entry_ms() const { return simtime_ms(decided - arrival); }
  [[nodiscard]] double forward_ms() const { return simtime_ms(service - decided); }
  [[nodiscard]] double disk_ms() const { return simtime_ms(disk_done - service); }
  [[nodiscard]] double reply_ms() const { return simtime_ms(completion - disk_done); }
  /// Client-perceived time across every attempt.
  [[nodiscard]] double total_ms() const { return simtime_ms(completion - first_arrival); }
};

[[nodiscard]] bool operator==(const Span& a, const Span& b);

/// One fault-timeline transition, kept alongside the spans so exporters
/// can annotate traces with crash/recovery markers.
struct FaultEvent {
  enum class Kind : std::uint8_t { kCrash, kRepair, kDetected, kReadmitted };
  Kind kind = Kind::kCrash;
  std::int32_t node = -1;
  SimTime at = 0;
};

[[nodiscard]] constexpr const char* fault_event_name(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kCrash: return "crash";
    case FaultEvent::Kind::kRepair: return "repair";
    case FaultEvent::Kind::kDetected: return "detected";
    case FaultEvent::Kind::kReadmitted: return "readmitted";
  }
  return "?";
}

/// Bounded ring of sampled spans. When full, recording overwrites the
/// oldest span and counts it in overwritten() — recent history survives,
/// accounting stays honest.
class SpanRecorder : public Ring<Span> {
 public:
  /// Throws std::invalid_argument unless both parameters are positive.
  SpanRecorder(std::size_t capacity, std::uint64_t sample_every);

  /// Deterministic 1-in-N decision, a pure function of the request id
  /// (splitmix64 finalizer, so consecutive ids sample uniformly).
  [[nodiscard]] bool sampled(std::uint64_t request_id) const;
  [[nodiscard]] std::uint64_t sample_every() const { return sample_every_; }

 private:
  std::uint64_t sample_every_;
};

}  // namespace l2s::telemetry
