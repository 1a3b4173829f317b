// Synthetic trace generation calibrated to Table 2 of the paper.
//
// The four real access logs (Calgary, ClarkNet, NASA, Rutgers) are not
// redistributable, so we synthesize traces that reproduce the statistics
// the paper reports and that drive every code path the real logs would:
//
//   * `files` distinct files whose sizes follow a lognormal distribution
//     with the trace's average file size (heavy-tailed, as observed by
//     Arlitt & Williamson for WWW workloads);
//   * request popularity is Zipf-like with the trace's fitted alpha;
//   * the average *requested* size is matched separately from the average
//     *file* size by tuning the correlation between popularity rank and
//     file size with popularity-weighted greedy swaps (in real traces the
//     popular files tend to be smaller, e.g. Calgary: 42.9 KB average file
//     vs 19.7 KB average request).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "l2sim/trace/trace.hpp"

namespace l2s::trace {

struct SyntheticSpec {
  std::string name;
  std::uint64_t files = 1000;
  double avg_file_kb = 32.0;
  std::uint64_t requests = 100000;
  double avg_request_kb = 16.0;
  double alpha = 1.0;
  double size_sigma = 1.0;  ///< sigma of the underlying normal (lognormal spread)
  std::uint64_t seed = 42;

  /// Optional class-based size model (SPECweb-style). When non-empty it
  /// replaces the lognormal size draw: each file joins a class with
  /// probability `weight` (normalized) and draws its size log-uniformly in
  /// [min_kb, max_kb]. avg_file_kb / avg_request_kb are then emergent and
  /// the request-mean tuning is skipped.
  struct SizeClass {
    double weight;
    double min_kb;
    double max_kb;
  };
  std::vector<SizeClass> size_classes;

  /// Probability that a request repeats a recently requested file instead
  /// of drawing fresh from the Zipf distribution. Real WWW logs exhibit
  /// strong temporal correlation beyond pure popularity (the paper's
  /// traces produce 9-28% miss rates on a sequential 32 MB LRU server,
  /// which IID Zipf sampling cannot reach for the larger working sets);
  /// repeats draw a geometric depth into an LRU stack of recent files.
  double temporal_locality = 0.0;
  double temporal_mean_depth = 48.0;  ///< mean LRU-stack depth of repeats

  void validate() const;
};

/// Generate a trace matching the spec. Deterministic given the seed.
[[nodiscard]] Trace generate(const SyntheticSpec& spec);

/// The paper's four traces (Table 2), calibrated specs.
[[nodiscard]] std::vector<SyntheticSpec> paper_trace_specs();

/// SPECweb99-style static workload: four file classes mixed
/// 35% (0.1-1 KB) / 50% (1-10 KB) / 14% (10-100 KB) / 1% (100 KB-1 MB).
[[nodiscard]] SyntheticSpec specweb99_spec(std::uint64_t files, std::uint64_t requests,
                                           std::uint64_t seed = 99);

/// Look up one of the paper traces by (case-insensitive) name.
[[nodiscard]] SyntheticSpec paper_trace_spec(const std::string& name);

/// Generate `spec` with its request count multiplied by `scale` (the
/// --scale of the CLI and the studies) and capped at `max_requests`.
/// Throws l2s::Error naming --scale unless `scale` is finite and > 0.
[[nodiscard]] Trace generate_scaled(SyntheticSpec spec, double scale,
                                    std::uint64_t max_requests = UINT64_MAX);

}  // namespace l2s::trace
