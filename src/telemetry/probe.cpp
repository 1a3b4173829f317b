#include "l2sim/telemetry/probe.hpp"

#include <string>
#include <utility>

#include "l2sim/common/error.hpp"

namespace l2s::telemetry {
namespace {

template <typename T>
[[nodiscard]] std::uint32_t narrow(T value) {
  L2S_REQUIRE(std::in_range<std::uint32_t>(value));
  return static_cast<std::uint32_t>(value);
}

}  // namespace

TimelineProbe::TimelineProbe(Registry& registry, int nodes)
    : timeline_(nodes), last_busy_(static_cast<std::size_t>(nodes), 0) {
  peak_queue_.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    peak_queue_.push_back(&registry.gauge("node.peak_cpu_queue", {{"node", std::to_string(n)}}));
  }
}

void TimelineProbe::begin(SimTime start) {
  recording_ = true;
  last_now_ = start;
  last_busy_.assign(last_busy_.size(), 0);
}

void TimelineProbe::record(SimTime now, std::uint64_t via_in_flight,
                           std::span<const Reading> nodes) {
  if (!recording_) return;
  L2S_REQUIRE(nodes.size() == last_busy_.size());
  const std::span<Timeline::Node> row = timeline_.append(now, via_in_flight);
  const SimTime window = now - last_now_;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Reading& in = nodes[i];
    Timeline::Node& out = row[i];
    out.open_connections = narrow(in.open_connections);
    out.cpu_queue = narrow(in.cpu_queue);
    out.disk_queue = narrow(in.disk_queue);
    out.nic_tx_queue = narrow(in.nic_tx_queue);
    out.cache_used = in.cache_used;
    peak_queue_[i]->set(static_cast<double>(in.cpu_queue));

    // Differentiate cumulative busy time into per-window utilization.
    if (window > 0) {
      const SimTime busy_delta = in.cpu_busy - last_busy_[i];
      out.cpu_utilization = static_cast<double>(busy_delta) / static_cast<double>(window);
    }
    last_busy_[i] = in.cpu_busy;
  }
  last_now_ = now;
}

Timeline TimelineProbe::take() { return std::exchange(timeline_, Timeline(timeline_.nodes())); }

}  // namespace l2s::telemetry
