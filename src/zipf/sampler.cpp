#include "l2sim/zipf/sampler.hpp"

#include <cmath>
#include <limits>

#include "l2sim/common/error.hpp"

namespace l2s::zipf {

ZipfSampler::ZipfSampler(std::uint64_t files, double alpha)
    : scale_(static_cast<double>(files)), alpha_(alpha) {
  L2S_REQUIRE(files > 0);
  L2S_REQUIRE(files - 1 <= std::numeric_limits<std::uint32_t>::max());
  L2S_REQUIRE(alpha > 0.0);
  cdf_.resize(files);
  double acc = 0.0;
  for (std::uint64_t i = 0; i < files; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -alpha);
    cdf_[i] = acc;
  }
  const double total = acc;
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against rounding

  // guide_[j] = the first rank i with bucket(cdf_[i]) >= j. The last rank's
  // bucket is bucket(1.0) == files, so every entry is written.
  guide_.resize(files + 1);
  std::uint64_t j = 0;
  for (std::uint64_t i = 0; i < files; ++i) {
    const std::uint64_t b = bucket(cdf_[i]);
    for (; j <= b; ++j) guide_[j] = static_cast<std::uint32_t>(i);
  }
}

std::uint64_t ZipfSampler::rank_of(double u) const {
  L2S_REQUIRE(u >= 0.0 && u <= 1.0);
  // For the first rank L with cdf_[L] >= u, bucket(u) <= bucket(cdf_[L]), so
  // the guide starts at or before L; every rank before L has cdf_ < u, so the
  // scan stops on L. It stops at the last rank at the latest (cdf_ 1.0).
  std::uint64_t i = guide_[bucket(u)];
  while (cdf_[i] < u) ++i;
  return i;
}

double ZipfSampler::probability(std::uint64_t rank) const {
  L2S_REQUIRE(rank < cdf_.size());
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace l2s::zipf
