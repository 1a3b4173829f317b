#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "fnv.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::trace {
namespace {

SyntheticSpec small_spec() {
  SyntheticSpec s;
  s.name = "unit";
  s.files = 500;
  s.avg_file_kb = 20.0;
  s.requests = 20000;
  s.avg_request_kb = 12.0;
  s.alpha = 0.9;
  s.seed = 123;
  return s;
}

TEST(Synthetic, ProducesRequestedCounts) {
  const Trace t = generate(small_spec());
  EXPECT_EQ(t.files().count(), 500u);
  EXPECT_EQ(t.request_count(), 20000u);
}

TEST(Synthetic, AverageFileSizeMatchesSpec) {
  const Trace t = generate(small_spec());
  EXPECT_NEAR(t.files().avg_kb(), 20.0, 0.2);
}

TEST(Synthetic, AverageRequestSizeMatchesSpec) {
  const Trace t = generate(small_spec());
  EXPECT_NEAR(t.avg_request_kb(), 12.0, 1.0);
}

TEST(Synthetic, RequestMeanAboveFileMeanAlsoReachable) {
  // ClarkNet-style: the requested mean slightly exceeds the file mean.
  SyntheticSpec s = small_spec();
  s.avg_request_kb = 23.0;
  const Trace t = generate(s);
  EXPECT_NEAR(t.avg_request_kb(), 23.0, 1.5);
  EXPECT_NEAR(t.files().avg_kb(), 20.0, 0.2);
}

TEST(Synthetic, DeterministicGivenSeed) {
  const Trace a = generate(small_spec());
  const Trace b = generate(small_spec());
  ASSERT_EQ(a.request_count(), b.request_count());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.requests()[i].file, b.requests()[i].file);
    EXPECT_EQ(a.requests()[i].bytes, b.requests()[i].bytes);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec s2 = small_spec();
  s2.seed = 999;
  const Trace a = generate(small_spec());
  const Trace b = generate(s2);
  int same = 0;
  for (std::size_t i = 0; i < 100; ++i) same += (a.requests()[i].file == b.requests()[i].file);
  EXPECT_LT(same, 60);  // popular ranks will coincide sometimes
}

TEST(Synthetic, RequestBytesEqualFileSize) {
  const Trace t = generate(small_spec());
  for (std::size_t i = 0; i < 200; ++i) {
    const auto& r = t.requests()[i];
    EXPECT_EQ(r.bytes, t.files().size_of(r.file));
  }
}

TEST(Synthetic, PopularityFollowsRankOrder) {
  const Trace t = generate(small_spec());
  std::vector<std::uint64_t> freq(t.files().count(), 0);
  for (const auto& r : t.requests()) ++freq[r.file];
  // File id == popularity rank: rank 0 must be requested far more often
  // than a mid-tail rank.
  EXPECT_GT(freq[0], 4 * freq[100]);
}

TEST(Synthetic, ValidatesSpec) {
  SyntheticSpec s = small_spec();
  s.files = 0;
  EXPECT_THROW(generate(s), l2s::Error);
  s = small_spec();
  s.requests = 0;
  EXPECT_THROW(generate(s), l2s::Error);
  s = small_spec();
  s.avg_file_kb = -1.0;
  EXPECT_THROW(generate(s), l2s::Error);
  s = small_spec();
  s.alpha = 0.0;
  EXPECT_THROW(generate(s), l2s::Error);
  s = small_spec();
  s.size_sigma = 0.0;
  EXPECT_THROW(generate(s), l2s::Error);
}

TEST(PaperTraces, FourSpecsWithTable2Values) {
  const auto specs = paper_trace_specs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "Calgary");
  EXPECT_EQ(specs[0].files, 8397u);
  EXPECT_DOUBLE_EQ(specs[0].avg_file_kb, 42.9);
  EXPECT_EQ(specs[0].requests, 567895u);
  EXPECT_DOUBLE_EQ(specs[0].avg_request_kb, 19.7);
  EXPECT_DOUBLE_EQ(specs[0].alpha, 1.08);
  EXPECT_EQ(specs[1].name, "Clarknet");
  EXPECT_EQ(specs[1].files, 35885u);
  EXPECT_EQ(specs[2].name, "NASA");
  EXPECT_EQ(specs[2].requests, 3147719u);
  EXPECT_EQ(specs[3].name, "Rutgers");
  EXPECT_DOUBLE_EQ(specs[3].alpha, 0.79);
}

TEST(PaperTraces, LookupByNameCaseInsensitive) {
  EXPECT_EQ(paper_trace_spec("calgary").name, "Calgary");
  EXPECT_EQ(paper_trace_spec("NASA").name, "NASA");
  EXPECT_EQ(paper_trace_spec("ClArKnEt").name, "Clarknet");
  EXPECT_THROW(paper_trace_spec("unknown"), l2s::Error);
}

TEST(PaperTraces, WorkingSetsInPaperRange) {
  // The paper reports working sets from 288 MB to 717 MB.
  for (auto spec : paper_trace_specs()) {
    spec.requests = 1000;  // size distribution does not depend on requests
    const Trace t = generate(spec);
    const double mb = static_cast<double>(t.files().total_bytes()) / (1024.0 * 1024.0);
    EXPECT_GT(mb, 270.0) << spec.name;
    EXPECT_LT(mb, 740.0) << spec.name;
  }
}

/// FNV-1a over a generated trace: every file's size in id order, then each
/// request's file and bytes.
std::string trace_digest(const Trace& t) {
  testing::Fnv h;
  for (FileId f = 0; f < t.files().count(); ++f) h.u64(t.files().size_of(f));
  for (const auto& r : t.requests()) {
    h.u64(r.file);
    h.u64(r.bytes);
  }
  return h.hex();
}

std::vector<SyntheticSpec> pinned_specs() {
  std::vector<SyntheticSpec> specs;
  for (auto spec : paper_trace_specs()) {
    spec.requests = 20000;
    specs.push_back(std::move(spec));
  }
  specs.push_back(specweb99_spec(2000, 20000));
  SyntheticSpec local = small_spec();
  local.name = "temporal";
  local.temporal_locality = 0.3;
  specs.push_back(std::move(local));
  return specs;
}

const std::vector<std::pair<std::string, std::string>> kTraceGolden = {
    {"Calgary", "00411185bc5865f8"},
    {"Clarknet", "26363cfafecd1336"},
    {"NASA", "f706280ba16cc759"},
    {"Rutgers", "02b0116f028040a1"},
    {"specweb99", "918119211dbee8c2"},
    {"temporal", "c087b74fff48ffae"},
};

// The generator's output, pinned per spec: the file sizes and every
// request. Recorded while each draw was a binary search over the CDF; the
// guide table must return the same ranks. The simulation pins see a trace
// only through the cells they run, so these pin the generator itself.
// L2SIM_GOLDEN_PRINT=1 prints the digests instead of checking them.
TEST(Synthetic, OutputMatchesRecordedDigests) {
  const auto specs = pinned_specs();
  ASSERT_EQ(specs.size(), kTraceGolden.size());
  const bool print = std::getenv("L2SIM_GOLDEN_PRINT") != nullptr;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string digest = trace_digest(generate(specs[i]));
    if (print) {
      std::printf("GOLDEN    {\"%s\", \"%s\"},\n", specs[i].name.c_str(), digest.c_str());
      continue;
    }
    EXPECT_EQ(specs[i].name, kTraceGolden[i].first);
    EXPECT_EQ(digest, kTraceGolden[i].second) << specs[i].name;
  }
}

}  // namespace
}  // namespace l2s::trace
