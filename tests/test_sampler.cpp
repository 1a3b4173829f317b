#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/common/rng.hpp"
#include "l2sim/trace/synthetic.hpp"
#include "l2sim/zipf/sampler.hpp"

namespace l2s::zipf {
namespace {

TEST(ZipfSampler, ProbabilitiesSumToOne) {
  const ZipfSampler s(1000, 0.9);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < s.files(); ++r) sum += s.probability(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, ProbabilitiesFollowPowerLaw) {
  const ZipfSampler s(1000, 1.0);
  // p(r) ~ 1/(r+1): p(0)/p(9) == 10.
  EXPECT_NEAR(s.probability(0) / s.probability(9), 10.0, 1e-6);
}

TEST(ZipfSampler, SamplesMatchProbabilities) {
  const ZipfSampler s(100, 0.8);
  Rng rng(5);
  std::vector<int> counts(100, 0);
  const int draws = 300000;
  for (int i = 0; i < draws; ++i) ++counts[s.sample(rng)];
  for (const std::uint64_t r : {0ull, 1ull, 5ull, 20ull}) {
    const double expected = s.probability(r) * draws;
    EXPECT_NEAR(counts[r], expected, 5.0 * std::sqrt(expected) + 5.0) << "rank " << r;
  }
}

TEST(ZipfSampler, AllRanksInRange) {
  const ZipfSampler s(17, 1.1);
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(s.sample(rng), 17u);
}

TEST(ZipfSampler, SingleFileAlwaysRankZero) {
  const ZipfSampler s(1, 1.0);
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.sample(rng), 0u);
  EXPECT_DOUBLE_EQ(s.probability(0), 1.0);
}

TEST(ZipfSampler, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), l2s::Error);
  EXPECT_THROW(ZipfSampler(10, 0.0), l2s::Error);
}

// --- exactness of the guide table ------------------------------------------

/// The rank a binary search over the sampler's own CDF returns for `u`.
std::uint64_t searched_rank(const ZipfSampler& s, double u) {
  const auto cdf = s.cdf();
  return static_cast<std::uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Compares rank_of with the binary search at every CDF value and the
/// doubles on either side of it, at 0, at the largest double below 1 and
/// at 1, the one draw in bucket `files`. Returns the number of mismatches.
std::uint64_t edge_mismatches(const ZipfSampler& s) {
  std::vector<double> us{0.0, std::nextafter(1.0, 0.0), 1.0};
  for (const double c : s.cdf()) {
    us.push_back(c);
    us.push_back(std::nextafter(c, 0.0));
    if (c < 1.0) us.push_back(std::nextafter(c, 2.0));
  }
  std::uint64_t mismatches = 0;
  for (const double u : us) mismatches += s.rank_of(u) != searched_rank(s, u);
  return mismatches;
}

std::uint64_t uniform_mismatches(const ZipfSampler& s, int draws, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t mismatches = 0;
  for (int i = 0; i < draws; ++i) {
    const double u = rng.next_double();
    mismatches += s.rank_of(u) != searched_rank(s, u);
  }
  return mismatches;
}

TEST(ZipfSampler, SampleIsRankOfTheNextUniformDraw) {
  const ZipfSampler s(500, 0.9);
  Rng a(21);
  Rng b(21);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.sample(a), s.rank_of(b.next_double()));
}

TEST(ZipfSampler, RankOfMatchesBinarySearchOnPaperSpecs) {
  std::vector<std::pair<std::uint64_t, double>> shapes;
  for (const auto& spec : trace::paper_trace_specs()) shapes.emplace_back(spec.files, spec.alpha);
  const auto specweb = trace::specweb99_spec(2000, 1);
  shapes.emplace_back(specweb.files, specweb.alpha);
  std::uint64_t seed = 1;
  for (const auto& [files, alpha] : shapes) {
    const ZipfSampler s(files, alpha);
    EXPECT_EQ(uniform_mismatches(s, 1'000'000, seed++), 0u) << files << " files";
    EXPECT_EQ(edge_mismatches(s), 0u) << files << " files";
  }
}

TEST(ZipfSampler, RankOfMatchesBinarySearchAtFileCountExtremes) {
  for (const std::uint64_t files : {1ull, 2ull}) {
    for (const double alpha : {0.5, 1.0, 1.5}) {
      const ZipfSampler s(files, alpha);
      EXPECT_EQ(edge_mismatches(s), 0u) << files << " files, alpha " << alpha;
      EXPECT_EQ(uniform_mismatches(s, 10'000, files), 0u) << files << " files, alpha " << alpha;
    }
  }
  const ZipfSampler big(1'000'000, 1.0);
  EXPECT_EQ(edge_mismatches(big), 0u);
  EXPECT_EQ(uniform_mismatches(big, 1'000'000, 3), 0u);
}

TEST(ZipfSampler, RankOfBoundsItsDraw) {
  const ZipfSampler s(10, 1.0);
  EXPECT_EQ(s.rank_of(0.0), 0u);
  EXPECT_EQ(s.rank_of(1.0), searched_rank(s, 1.0));
  EXPECT_LT(s.rank_of(std::nextafter(1.0, 0.0)), 10u);
  EXPECT_THROW((void)s.rank_of(-0.5), l2s::Error);
  EXPECT_THROW((void)s.rank_of(1.5), l2s::Error);
  EXPECT_THROW((void)s.rank_of(std::numeric_limits<double>::quiet_NaN()), l2s::Error);
}

TEST(ZipfSampler, ProbabilityOutOfRangeThrows) {
  const ZipfSampler s(10, 1.0);
  EXPECT_THROW((void)s.probability(10), l2s::Error);
}

}  // namespace
}  // namespace l2s::zipf
