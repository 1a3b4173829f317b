// TimelineProbe: turns periodic cluster readings into one Timeline table —
// per-node open connections, CPU/disk/NIC queue depths, cache occupancy,
// CPU utilization (differentiated from cumulative busy time) and
// cluster-wide in-flight VIA messages. The probe is passive plumbing:
// whoever drives it (telemetry::SimTelemetry, riding the engine's existing
// load-sampler tick) reads the nodes and calls record(); the probe never
// schedules events, so enabling it cannot perturb the simulation. It
// records the measured pass only: ticks before begin() are ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "l2sim/common/units.hpp"
#include "l2sim/telemetry/registry.hpp"

namespace l2s::telemetry {

class TimelineProbe {
 public:
  /// One node's state at a tick, as the engine reads it.
  struct Reading {
    int open_connections = 0;
    std::size_t cpu_queue = 0;
    std::size_t disk_queue = 0;
    std::size_t nic_tx_queue = 0;
    Bytes cache_used = 0;
    SimTime cpu_busy = 0;  ///< cumulative busy time (the probe differentiates)
  };

  /// Registers one node.peak_cpu_queue gauge per node in `registry`.
  TimelineProbe(Registry& registry, int nodes);

  /// Start recording at the start of the measured pass, anchoring
  /// utilization differentiation there (cumulative busy counters are
  /// zeroed after warm-up).
  void begin(SimTime start);
  [[nodiscard]] bool recording() const { return recording_; }

  /// Record tick `now` from one reading per node, in node order. Counts
  /// must fit 32 bits. A no-op before begin().
  void record(SimTime now, std::uint64_t via_in_flight, std::span<const Reading> nodes);

  [[nodiscard]] const Timeline& timeline() const { return timeline_; }

  /// Hand the table over, leaving an empty one.
  [[nodiscard]] Timeline take();

 private:
  Timeline timeline_;
  bool recording_ = false;
  SimTime last_now_ = 0;
  std::vector<SimTime> last_busy_;
  std::vector<Gauge*> peak_queue_;  ///< registry handles (stable references)
};

}  // namespace l2s::telemetry
