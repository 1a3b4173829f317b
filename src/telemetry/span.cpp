#include "l2sim/telemetry/span.hpp"

#include <stdexcept>

namespace l2s::telemetry {
namespace {

/// splitmix64 finalizer: a cheap, high-quality bijective mixer. Sampling on
/// mix(id) % N instead of id % N keeps 1-in-N sampling uniform even though
/// request ids are consecutive integers.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

bool operator==(const Span& a, const Span& b) {
  return a.request_id == b.request_id && a.entry_node == b.entry_node &&
         a.service_node == b.service_node && a.verdict == b.verdict &&
         a.cache_hit == b.cache_hit && a.attempt == b.attempt &&
         a.retries_used == b.retries_used && a.fault_epoch == b.fault_epoch &&
         a.first_arrival == b.first_arrival && a.arrival == b.arrival &&
         a.decided == b.decided && a.service == b.service &&
         a.disk_done == b.disk_done && a.completion == b.completion;
}

SpanRecorder::SpanRecorder(std::size_t capacity, std::uint64_t sample_every)
    : Ring<Span>(capacity), sample_every_(sample_every) {
  if (capacity == 0) throw std::invalid_argument("SpanRecorder: capacity must be > 0");
  if (sample_every == 0) {
    throw std::invalid_argument("SpanRecorder: sample_every must be > 0");
  }
}

bool SpanRecorder::sampled(std::uint64_t request_id) const {
  if (sample_every_ == 1) return true;
  return mix64(request_id) % sample_every_ == 0;
}

}  // namespace l2s::telemetry
