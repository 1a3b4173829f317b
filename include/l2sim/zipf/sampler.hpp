// Discrete Zipf-like sampler used by the synthetic trace generator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "l2sim/common/rng.hpp"

namespace l2s::zipf {

/// Samples ranks in [0, files) with P(rank r) ~ 1/(r+1)^alpha.
///
/// Precomputes the CDF once (O(files)) and a cutpoint guide table in front
/// of it (Chen & Asau, 1974): files + 1 entries, where guide[j] is the first
/// rank whose CDF value falls in bucket j or later, bucket(x) = x * files
/// truncated. A draw reads guide[bucket(u)] and scans forward to the first
/// rank with cdf >= u. The bucket map is monotone and the table and the
/// draw use the same expression, so the scan starts at or before
/// lower_bound(cdf, u) and stops exactly on it: the rank is the one a
/// binary search over the CDF returns, in O(1) expected time. The table
/// costs 4 bytes per file.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t files, double alpha);

  [[nodiscard]] std::uint64_t sample(Rng& rng) const { return rank_of(rng.next_double()); }

  /// The rank a uniform draw `u` in [0, 1] maps to: the first rank whose
  /// CDF value is >= u.
  [[nodiscard]] std::uint64_t rank_of(double u) const;

  /// Probability mass of an individual rank (0-based).
  [[nodiscard]] double probability(std::uint64_t rank) const;

  /// The CDF, one value per rank; the last is exactly 1.
  [[nodiscard]] std::span<const double> cdf() const { return cdf_; }

  [[nodiscard]] std::uint64_t files() const { return static_cast<std::uint64_t>(cdf_.size()); }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  /// The guide-table bucket of a CDF value or draw in [0, 1]: 0..files.
  [[nodiscard]] std::uint64_t bucket(double x) const {
    return static_cast<std::uint64_t>(x * scale_);
  }

  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  ///< files + 1 entries
  double scale_;                      ///< files, as the one double bucket() uses
  double alpha_;
};

}  // namespace l2s::zipf
