// Digest-divergence debugger: `diff_decisions` must report the EXACT first
// record where two replays disagree (pinned against an offline record-by-
// record comparison of two full collector runs) and stay silent on
// identical configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/core/spec.hpp"
#include "l2sim/obs/diff.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::obs {
namespace {

trace::Trace diff_trace() {
  trace::SyntheticSpec spec;
  spec.name = "diff";
  spec.files = 150;
  spec.avg_file_kb = 8.0;
  spec.requests = 2000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 11;
  return trace::generate(spec);
}

core::ExperimentSpec base_spec() {
  core::ExperimentSpec spec;
  spec.name = "diff";
  spec.sim.nodes = 4;
  spec.sim.node.cache_bytes = 2 * kMiB;
  spec.sim.arrival.open_loop_rate = 2000.0;
  spec.sim.persistence.mean_requests_per_connection = 2.0;
  spec.policy = core::PolicyKind::kL2s;
  spec.set_shrink_seconds = 2.0;
  return spec;
}

/// Offline reference: both sides replayed in full with the recorder
/// retaining everything, then compared record by record.
std::vector<DecisionRecord> full_stream(const trace::Trace& tr,
                                        const core::ExperimentSpec& spec) {
  core::SimConfig sim = spec.sim;
  sim.obs.enabled = true;
  sim.obs.capacity = 0;
  const auto r = core::run_once(tr, sim, spec.policy, spec.set_shrink_seconds);
  EXPECT_NE(r.decisions, nullptr);
  return r.decisions->records;
}

TEST(DecisionDiff, IdenticalSpecsReportNoDivergence) {
  const auto tr = diff_trace();
  const auto spec = base_spec();
  const DiffReport report = diff_decisions(spec, spec, tr);
  EXPECT_FALSE(report.diverged);
  EXPECT_GT(report.records_a, 0u);
  EXPECT_EQ(report.records_a, report.records_b);
  EXPECT_NE(report.summary().find("identical"), std::string::npos);
}

TEST(DecisionDiff, SeededDivergenceReportsTheExactFirstRecord) {
  // The open-loop arrival stream draws inter-arrival gaps from the seeded
  // RNG, so perturbing the seed diverges the decision log almost
  // immediately — and the diff must name precisely the record the offline
  // comparison finds first.
  const auto tr = diff_trace();
  const auto a = base_spec();
  auto b = base_spec();
  b.sim.seed = a.sim.seed ^ 1;

  const auto stream_a = full_stream(tr, a);
  const auto stream_b = full_stream(tr, b);
  const auto mismatch =
      std::mismatch(stream_a.begin(), stream_a.end(), stream_b.begin(), stream_b.end());
  ASSERT_TRUE(mismatch.first != stream_a.end() || mismatch.second != stream_b.end())
      << "seed perturbation failed to diverge the streams";
  const auto expected =
      static_cast<std::uint64_t>(mismatch.first - stream_a.begin());

  DiffOptions options;
  options.context = 3;
  const DiffReport report = diff_decisions(a, b, tr, options);
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergence, expected);
  EXPECT_EQ(report.records_a, stream_a.size());
  // B stops the moment it disagrees: one past the divergent index.
  EXPECT_EQ(report.records_b, expected + 1);
  EXPECT_FALSE(report.length_only);

  // The context windows end at the divergent record and agree with the
  // offline streams.
  ASSERT_FALSE(report.context_a.empty());
  ASSERT_FALSE(report.context_b.empty());
  EXPECT_LE(report.context_a.size(), options.context);
  EXPECT_EQ(report.context_a.back(), stream_a[expected]);
  EXPECT_EQ(report.context_b.back(), stream_b[expected]);
  EXPECT_NE(report.context_a.back(), report.context_b.back());
  EXPECT_EQ(report.context_start + report.context_a.size() - 1, expected);

  // The rendered summary names the index.
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("#" + std::to_string(expected)), std::string::npos) << summary;
}

TEST(DecisionDiff, PolicyChangeDivergesAtTheFirstDispatch) {
  const auto tr = diff_trace();
  auto a = base_spec();
  auto b = base_spec();
  a.policy = core::PolicyKind::kTraditional;
  b.policy = core::PolicyKind::kLard;
  const DiffReport report = diff_decisions(a, b, tr);
  ASSERT_TRUE(report.diverged);
  // Different distribution policies disagree on an early dispatch; both
  // sides still agree the divergent record is a dispatch decision.
  ASSERT_FALSE(report.context_a.empty());
  EXPECT_EQ(report.context_a.back().kind, DecisionKind::kDispatch);
}

TEST(DecisionDiff, RealizesTracesFromSpecsWhenNotShared) {
  // The two-spec overload realizes each side's TraceSpec; identical specs
  // must realize identical workloads and report no divergence.
  auto a = base_spec();
  auto b = base_spec();
  trace::SyntheticSpec synth;
  synth.name = "diff-realize";
  synth.files = 100;
  synth.avg_file_kb = 8.0;
  synth.requests = 800;
  synth.avg_request_kb = 6.0;
  synth.alpha = 0.9;
  synth.seed = 3;
  a.trace = core::TraceSpec::synth(synth);
  b.trace = core::TraceSpec::synth(synth);
  const DiffReport report = diff_decisions(a, b);
  EXPECT_FALSE(report.diverged) << report.summary();
}

}  // namespace
}  // namespace l2s::obs
