// Robustness suites: malformed inputs, pathological workloads, and
// randomized structural checks that complement the per-module unit tests.
#include <gtest/gtest.h>

#include <sstream>

#include "l2sim/common/rng.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/trace/clf_reader.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s {
namespace {

// ---------------------------------------------------------------------------
// CLF reader fuzzing: arbitrary input must never crash and must keep its
// accounting consistent.

TEST(ClfFuzz, RandomGarbageNeverCrashes) {
  Rng rng(0xFEED);
  for (int round = 0; round < 50; ++round) {
    std::ostringstream log;
    for (int line = 0; line < 40; ++line) {
      const auto len = rng.next_below(120);
      for (std::uint64_t i = 0; i < len; ++i) {
        // Printable ASCII plus quotes/brackets to hit the parser's paths.
        log << static_cast<char>(32 + rng.next_below(95));
      }
      log << '\n';
    }
    std::istringstream in(log.str());
    trace::ClfParseStats stats;
    const auto tr = trace::read_clf(in, "fuzz", &stats);
    EXPECT_EQ(stats.lines, 40u);
    EXPECT_EQ(stats.accepted + stats.rejected_malformed + stats.rejected_method +
                  stats.rejected_status,
              stats.lines);
    EXPECT_EQ(tr.request_count(), stats.accepted);
  }
}

TEST(ClfFuzz, MutatedValidLinesStayConsistent) {
  const std::string valid =
      R"(host - - [01/Jul/1995:00:00:01 -0400] "GET /images/a.gif HTTP/1.0" 200 1839)";
  Rng rng(0xBEEF);
  for (int round = 0; round < 300; ++round) {
    std::string line = valid;
    // Mutate 1-3 random positions.
    const auto mutations = 1 + rng.next_below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      line[rng.next_below(line.size())] = static_cast<char>(32 + rng.next_below(95));
    }
    std::istringstream in(line + "\n");
    trace::ClfParseStats stats;
    const auto tr = trace::read_clf(in, "mut", &stats);
    EXPECT_LE(tr.request_count(), 1u);
    if (tr.request_count() == 1) {
      EXPECT_GT(tr.requests()[0].bytes, 0u);
      EXPECT_EQ(tr.files().count(), 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Pathological workloads through the full simulator.

core::SimConfig tiny_cluster(int nodes) {
  core::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 1 * kMiB;
  return cfg;
}

TEST(PathologicalWorkload, SingleHotFile) {
  // Every request hits one file: locality is trivial, load balancing is
  // everything. All policies must complete and hit ~100% after warm-up.
  storage::FileSet files;
  files.add(64 * kKiB);
  std::vector<trace::Request> reqs(5000, trace::Request{0, 64 * kKiB});
  const trace::Trace tr("hotfile", std::move(files), std::move(reqs));
  for (const auto kind : core::all_policies()) {
    const auto r = core::run_once(tr, tiny_cluster(4), kind);
    EXPECT_EQ(r.completed, 5000u);
    EXPECT_GT(r.hit_rate, 0.999) << core::policy_kind_name(kind);
  }
}

TEST(PathologicalWorkload, EveryRequestDistinctFile) {
  // Zero reuse: all policies must degrade to disk speed without deadlock,
  // and hit rates must be ~0.
  storage::FileSet files;
  std::vector<trace::Request> reqs;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    files.add(8 * kKiB);
    reqs.push_back(trace::Request{i, 8 * kKiB});
  }
  const trace::Trace tr("coldscan", std::move(files), std::move(reqs));
  for (const auto kind : core::all_policies()) {
    const auto r = core::run_once(tr, tiny_cluster(4), kind);
    EXPECT_EQ(r.completed, 2000u);
    EXPECT_LT(r.hit_rate, 0.01) << core::policy_kind_name(kind);
  }
}

TEST(PathologicalWorkload, FileLargerThanCache) {
  // A file bigger than a node's whole memory can never be cached: every
  // request goes to disk, but the system must still make progress.
  storage::FileSet files;
  files.add(4 * kMiB);  // cache is 1 MiB
  std::vector<trace::Request> reqs(200, trace::Request{0, 4 * kMiB});
  const trace::Trace tr("giant", std::move(files), std::move(reqs));
  const auto r = core::run_once(tr, tiny_cluster(2), core::PolicyKind::kL2s);
  EXPECT_EQ(r.completed, 200u);
  EXPECT_DOUBLE_EQ(r.hit_rate, 0.0);
}

TEST(PathologicalWorkload, AlternatingThrash) {
  // Two files that together exceed the cache, requested alternately:
  // worst-case LRU behaviour must stay live and miss-heavy.
  storage::FileSet files;
  files.add(700 * kKiB);
  files.add(700 * kKiB);
  std::vector<trace::Request> reqs;
  for (int i = 0; i < 1000; ++i)
    reqs.push_back(trace::Request{static_cast<std::uint32_t>(i % 2), 700 * kKiB});
  const trace::Trace tr("thrash", std::move(files), std::move(reqs));
  const auto r = core::run_once(tr, tiny_cluster(1), core::PolicyKind::kTraditional);
  EXPECT_EQ(r.completed, 1000u);
  // Strictly serial LRU would miss ~100%; the pipelined server overlaps
  // lookups with the outstanding disk read and converts roughly half of
  // them into hits. Either way the workload must stay miss-heavy and live.
  EXPECT_GT(r.miss_rate, 0.30);
  EXPECT_LT(r.hit_rate, 0.70);
}

TEST(PathologicalWorkload, ManyNodesFewRequests) {
  // More buffer slots than requests: the injector window never fills.
  trace::SyntheticSpec spec;
  spec.name = "sparse";
  spec.files = 10;
  spec.requests = 20;
  spec.avg_file_kb = 4.0;
  spec.avg_request_kb = 4.0;
  spec.alpha = 1.0;
  const auto tr = trace::generate(spec);
  for (const auto kind : core::all_policies()) {
    const auto r = core::run_once(tr, tiny_cluster(16), kind);
    EXPECT_EQ(r.completed, 20u) << core::policy_kind_name(kind);
  }
}

}  // namespace
}  // namespace l2s
