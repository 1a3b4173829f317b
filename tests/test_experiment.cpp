#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/report.hpp"
#include "l2sim/core/spec.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {
namespace {

trace::Trace workload() {
  trace::SyntheticSpec spec;
  spec.name = "exp";
  spec.files = 400;
  spec.avg_file_kb = 16.0;
  spec.requests = 6000;
  spec.avg_request_kb = 12.0;
  spec.alpha = 0.9;
  spec.seed = 3;
  return trace::generate(spec);
}

ExperimentSpec small_experiment() {
  ExperimentSpec spec;
  spec.sim.node.cache_bytes = 2 * kMiB;
  return spec;
}

const std::vector<int> kSmallNodeCounts = {1, 2, 4};

FigureSeries small_figure(const trace::Trace& tr) {
  return run_figure(small_experiment(), tr, kSmallNodeCounts, 1);
}

TEST(Experiment, MakePolicyProducesRightTypes) {
  EXPECT_STREQ(make_policy(PolicyKind::kTraditional)->name(), "traditional");
  EXPECT_STREQ(make_policy(PolicyKind::kLard)->name(), "lard");
  EXPECT_STREQ(make_policy(PolicyKind::kL2s)->name(), "l2s");
  EXPECT_STREQ(make_policy(PolicyKind::kRoundRobin)->name(), "rr-dns");
  EXPECT_STREQ(make_policy(PolicyKind::kLardDispatcher)->name(), "lard-dispatcher");
  EXPECT_STREQ(make_policy(PolicyKind::kConsistentHash)->name(), "consistent-hash");
}

TEST(Experiment, PolicyKindNames) {
  EXPECT_STREQ(policy_kind_name(PolicyKind::kTraditional), "trad");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kLard), "LARD");
  EXPECT_STREQ(policy_kind_name(PolicyKind::kL2s), "L2S");
  EXPECT_EQ(all_policies().size(), 3u);
  EXPECT_EQ(policy_kind_by_name("l2s"), PolicyKind::kL2s);
  EXPECT_EQ(policy_kind_by_name("traditional"), PolicyKind::kTraditional);
  EXPECT_EQ(policy_kind_by_name("rr"), PolicyKind::kRoundRobin);
  EXPECT_EQ(policy_kind_by_name("rr-dns"), PolicyKind::kRoundRobin);
  EXPECT_THROW((void)policy_kind_by_name("L2S"), Error);
}

// The model has an oblivious server (trad) and a conscious one (LARD,
// L2S); it must not answer for a policy it does not describe.
TEST(Experiment, RunModelRejectsPoliciesOutsideTheModel) {
  const auto tr = workload();
  ExperimentSpec spec = small_experiment();
  for (const PolicyKind kind :
       {PolicyKind::kRoundRobin, PolicyKind::kLardDispatcher, PolicyKind::kConsistentHash}) {
    spec.policy = kind;
    EXPECT_THROW((void)run_model(spec, tr), Error) << policy_kind_name(kind);
  }
}

// A paper trace's scale must be a finite number > 0 that leaves at least
// one request (and fewer than 2^64), and the error names the flag.
TEST(Experiment, PaperTraceScaleMustBePositive) {
  for (const double scale : {-0.1, 0.0, std::numeric_limits<double>::infinity(), 1e-9, 1e30}) {
    try {
      (void)TraceSpec::paper("calgary", scale).realize();
      ADD_FAILURE() << "scale " << scale << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--scale"), std::string::npos) << e.what();
    }
  }
  const char* argv[] = {"l2sim", "--scale", "-0.1"};
  EXPECT_THROW((void)scale_from_cli(CliArgs(3, argv)), Error);
}

TEST(Experiment, FigureSeriesShape) {
  const auto tr = workload();
  const auto fig = small_figure(tr);
  EXPECT_EQ(fig.trace_name, "exp");
  ASSERT_EQ(fig.node_counts.size(), 3u);
  EXPECT_EQ(fig.model_rps.size(), 3u);
  EXPECT_EQ(fig.l2s.size(), 3u);
  EXPECT_EQ(fig.lard.size(), 3u);
  EXPECT_EQ(fig.traditional.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(fig.model_rps[i], 0.0);
    EXPECT_GT(fig.l2s[i].throughput_rps, 0.0);
    EXPECT_EQ(fig.l2s[i].nodes, fig.node_counts[i]);
  }
}

TEST(Experiment, ModelSeriesGrowsWithNodes) {
  const auto tr = workload();
  const auto series = small_figure(tr).model_rps;
  ASSERT_EQ(series.size(), 3u);
  EXPECT_LT(series[0], series[1]);
  EXPECT_LT(series[1], series[2]);
}

// The figure's model column is the analytic engine at each node count, so
// a figure and a one-off run_model of the same spec cannot disagree.
TEST(Experiment, ModelColumnIsRunModelAtEachNodeCount) {
  const auto tr = workload();
  const auto fig = small_figure(tr);
  ASSERT_EQ(fig.model_rps.size(), kSmallNodeCounts.size());
  for (std::size_t i = 0; i < kSmallNodeCounts.size(); ++i) {
    ExperimentSpec spec = small_experiment();
    spec.sim.nodes = kSmallNodeCounts[i];
    EXPECT_EQ(fig.model_rps[i], run_model(spec, tr).throughput_rps) << "nodes " << spec.sim.nodes;
  }
}

TEST(Experiment, CharacteristicsStoredInFigure) {
  const auto tr = workload();
  const auto fig = small_figure(tr);
  EXPECT_EQ(fig.characteristics.files, 400u);
  EXPECT_EQ(fig.characteristics.requests, 6000u);
}

TEST(Report, PrintedTableHasAllSeries) {
  const auto tr = workload();
  const auto fig = small_figure(tr);
  std::ostringstream os;
  print_throughput_figure(os, fig);
  const std::string out = os.str();
  for (const char* needle : {"Nodes", "model", "L2S", "LARD", "trad", "exp"})
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
}

TEST(Report, MetricFigureAndValues) {
  const auto tr = workload();
  const auto fig = small_figure(tr);
  for (const std::string metric : {"missrate", "idle", "forwarded", "response", "throughput"}) {
    std::ostringstream os;
    print_metric_figure(os, fig, metric);
    EXPECT_FALSE(os.str().empty());
  }
  EXPECT_THROW((void)metric_value(fig.l2s[0], "bogus"), Error);
  EXPECT_DOUBLE_EQ(metric_value(fig.l2s[0], "throughput"), fig.l2s[0].throughput_rps);
  EXPECT_DOUBLE_EQ(metric_value(fig.l2s[0], "missrate"), fig.l2s[0].miss_rate * 100.0);
}

TEST(Report, CsvWrittenWhenDirGiven) {
  const auto tr = workload();
  const auto fig = run_figure(small_experiment(), tr, {1, 2}, 1);
  const std::string dir = ::testing::TempDir();
  write_throughput_csv(fig, dir, "l2sim_fig_test");
  std::ifstream in(dir + "/l2sim_fig_test.csv");
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "nodes,model,l2s,lard,trad");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);
  std::remove((dir + "/l2sim_fig_test.csv").c_str());
}

TEST(Experiment, ShrinkSecondsPlumbedThrough) {
  // Just verifies the parameterized path runs; behaviour is covered by the
  // policy tests.
  const auto tr = workload();
  const auto r = run_once(tr, small_experiment().sim, PolicyKind::kL2s, 0.5);
  EXPECT_GT(r.completed, 0u);
}

}  // namespace
}  // namespace l2s::core
