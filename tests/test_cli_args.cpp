#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "l2sim/common/cli_args.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/core/spec.hpp"

namespace l2s {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  for (const char* t : tokens) argv.push_back(t);
  return CliArgs(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(CliArgs, SpaceSeparatedValues) {
  const auto a = parse({"--nodes", "16", "--policy", "l2s"});
  EXPECT_EQ(a.get_int("nodes", 0), 16);
  EXPECT_EQ(a.get("policy"), "l2s");
}

TEST(CliArgs, EqualsSeparatedValues) {
  const auto a = parse({"--scale=0.25", "--csv=/tmp/out"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 0.0), 0.25);
  EXPECT_EQ(a.get("csv"), "/tmp/out");
}

TEST(CliArgs, BooleanFlags) {
  const auto a = parse({"--gdsf", "--nodes", "4"});
  EXPECT_TRUE(a.has("gdsf"));
  EXPECT_EQ(a.get("gdsf"), "");
  EXPECT_FALSE(a.has("absent"));
}

TEST(CliArgs, TrailingBooleanFlag) {
  const auto a = parse({"--nodes", "4", "--conscious"});
  EXPECT_TRUE(a.has("conscious"));
  EXPECT_EQ(a.get_int("nodes", 0), 4);
}

TEST(CliArgs, PositionalArguments) {
  const auto a = parse({"point", "--hlo", "0.6", "extra"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "point");
  EXPECT_EQ(a.positional()[1], "extra");
  EXPECT_DOUBLE_EQ(a.get_double("hlo", 0.0), 0.6);
}

TEST(CliArgs, FlagFollowedByFlagIsBoolean) {
  const auto a = parse({"--verbose", "--nodes", "8"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("verbose"), "");
  EXPECT_EQ(a.get_int("nodes", 0), 8);
}

TEST(CliArgs, Fallbacks) {
  const auto a = parse({});
  EXPECT_EQ(a.get("missing", "def"), "def");
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_TRUE(a.positional().empty());
}

TEST(CliArgs, NegativeNumbersAsValues) {
  // "-1" does not start with "--", so it is consumed as the flag's value.
  const auto a = parse({"--offset", "-1"});
  EXPECT_EQ(a.get_int("offset", 0), -1);
}

TEST(CliArgs, LastOccurrenceWins) {
  const auto a = parse({"--nodes", "4", "--nodes", "8"});
  EXPECT_EQ(a.get_int("nodes", 0), 8);
}

// A lenient parser (atoi/atof) accepts every row: it drops a trailing
// suffix, lets NaN reach the simulator, wraps past int and reads an empty
// value as 0.
TEST(CliArgs, NumericFlagsParseStrictly) {
  struct Row {
    std::vector<const char*> argv;
    const char* flag;
    bool integer;
  };
  const std::vector<Row> rows = {
      {{"--nodes", "4x"}, "nodes", true},
      {{"--scale", "0.01abc"}, "scale", false},
      {{"--shrink", "nan"}, "shrink", false},
      {{"--nodes", "4294967297"}, "nodes", true},  // fits int64, not int
      {{"--nodes"}, "nodes", true},                // no value at all
  };
  for (const auto& row : rows) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), row.argv.begin(), row.argv.end());
    const CliArgs a(static_cast<int>(argv.size()), argv.data(), 1);
    try {
      if (row.integer) {
        (void)a.get_int(row.flag, 0);
      } else {
        (void)a.get_double(row.flag, 0.0);
      }
      ADD_FAILURE() << "accepted --" << row.flag << " " << (row.argv.size() > 1 ? row.argv[1] : "");
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + row.flag), std::string::npos)
          << e.what();
    }
  }
  // Whole numbers in range still parse, signs and exponents included.
  const auto ok = parse({"--nodes", "-2147483648", "--scale", "1e-2"});
  EXPECT_EQ(ok.get_int("nodes", 0), -2147483647 - 1);
  EXPECT_DOUBLE_EQ(ok.get_double("scale", 0.0), 0.01);
}

// `l2sim run|diff --fail NODE@SECONDS` and `l2sim plan --nodes/--cache-mib`.
// A lenient parser (atoi/atof) accepts the first four rows as a crash of
// node 0, a crash at 0.5 s, a crash of node 0 and a crash at 0 s; it reads
// `4,8x` as 4 and 8 nodes and `4.5` as 4, and turns `abc` or an empty item
// into a 0 MiB cache that fails later with a message that does not name
// the flag.
TEST(CliArgs, FailAndListFlagsParseStrictly) {
  enum class Form { kIntAtDouble, kIntList, kDoubleList };
  struct Row {
    const char* flag;
    const char* value;
    Form form;
  };
  const std::vector<Row> rows = {
      {"fail", "x@0.5", Form::kIntAtDouble},   {"fail", "1@0.5x", Form::kIntAtDouble},
      {"fail", "@0.5", Form::kIntAtDouble},    {"fail", "1@", Form::kIntAtDouble},
      {"fail", "1", Form::kIntAtDouble},       {"nodes", "4,8x", Form::kIntList},
      {"nodes", "4.5", Form::kIntList},        {"cache-mib", "16,abc", Form::kDoubleList},
      {"cache-mib", "16,,32", Form::kDoubleList}, {"cache-mib", "", Form::kDoubleList},
  };
  for (const auto& row : rows) {
    const std::string flag = std::string("--") + row.flag;
    const std::vector<const char*> argv = {"prog", flag.c_str(), row.value};
    const CliArgs a(static_cast<int>(argv.size()), argv.data(), 1);
    try {
      switch (row.form) {
        case Form::kIntAtDouble: (void)a.get_int_at_double(row.flag); break;
        case Form::kIntList: (void)a.get_int_list(row.flag); break;
        case Form::kDoubleList: (void)a.get_double_list(row.flag); break;
      }
      ADD_FAILURE() << "accepted " << flag << " " << row.value;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
    }
  }
  const auto ok = parse({"--fail", "3@0.25", "--nodes", "4,8,16", "--cache-mib", "16,32.5"});
  EXPECT_EQ(ok.get_int_at_double("fail"), std::make_pair(3, 0.25));
  EXPECT_EQ(ok.get_int_list("nodes"), (std::vector<int>{4, 8, 16}));
  EXPECT_EQ(ok.get_double_list("cache-mib"), (std::vector<double>{16.0, 32.5}));
  EXPECT_TRUE(ok.get_int_list("absent").empty());
}

TEST(OverloadCli, FlashArrivalAndChaosSeed) {
  const auto a = parse({"--arrival", "flash", "--flash-at", "5", "--flash-factor",
                        "4.5", "--flash-ramp", "1.5", "--flash-hold", "10",
                        "--chaos-seed", "777"});
  core::ExperimentSpec spec;
  core::apply_overload_cli(a, spec);
  EXPECT_EQ(spec.sim.arrival.shape, core::ArrivalShape::kFlashCrowd);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.flash_at_seconds, 5.0);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.flash_factor, 4.5);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.flash_ramp_seconds, 1.5);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.flash_hold_seconds, 10.0);
  EXPECT_EQ(spec.sim.seed, 777u);
}

TEST(OverloadCli, DiurnalChurnAndDefenses) {
  const auto a = parse({"--arrival=diurnal", "--diurnal-period=30",
                        "--diurnal-amp=0.25", "--churn-period=8",
                        "--churn-stride=3", "--shedder=codel",
                        "--target-delay=0.02", "--retry-budget=0.1",
                        "--retry-burst=8", "--hedge-delay=0.05",
                        "--max-hedges=2", "--brownout"});
  core::ExperimentSpec spec;
  core::apply_overload_cli(a, spec);
  EXPECT_EQ(spec.sim.arrival.shape, core::ArrivalShape::kDiurnal);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.diurnal_period_seconds, 30.0);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.diurnal_amplitude, 0.25);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.churn_period_seconds, 8.0);
  EXPECT_EQ(spec.sim.arrival.churn_stride, 3u);
  EXPECT_EQ(spec.sim.overload.shedder, core::ShedderKind::kQueueDelay);
  EXPECT_DOUBLE_EQ(spec.sim.overload.target_delay_seconds, 0.02);
  EXPECT_DOUBLE_EQ(spec.sim.overload.retry_budget_ratio, 0.1);
  EXPECT_DOUBLE_EQ(spec.sim.overload.retry_budget_burst, 8.0);
  EXPECT_DOUBLE_EQ(spec.sim.overload.hedge_delay_seconds, 0.05);
  EXPECT_EQ(spec.sim.overload.max_hedges, 2);
  EXPECT_TRUE(spec.sim.overload.brownout);
  EXPECT_TRUE(spec.sim.overload.any_on());
}

TEST(OverloadCli, NoFlagsLeaveSpecUntouched) {
  const auto a = parse({"--nodes", "8"});
  core::ExperimentSpec spec;
  const auto seed = spec.sim.seed;
  core::apply_overload_cli(a, spec);
  EXPECT_EQ(spec.sim.arrival.shape, core::ArrivalShape::kStationary);
  EXPECT_EQ(spec.sim.overload.shedder, core::ShedderKind::kNone);
  EXPECT_FALSE(spec.sim.overload.any_on());
  EXPECT_EQ(spec.sim.seed, seed);
}

TEST(OverloadCli, StaticAndAimdShedderNames) {
  core::ExperimentSpec spec;
  core::apply_overload_cli(parse({"--shedder=static", "--static-cap=64"}), spec);
  EXPECT_EQ(spec.sim.overload.shedder, core::ShedderKind::kStaticCap);
  EXPECT_EQ(spec.sim.overload.static_cap, 64);
  core::apply_overload_cli(parse({"--shedder=aimd"}), spec);
  EXPECT_EQ(spec.sim.overload.shedder, core::ShedderKind::kAimd);
}

TEST(OverloadCli, UnknownNamesThrow) {
  core::ExperimentSpec spec;
  EXPECT_THROW(core::apply_overload_cli(parse({"--arrival=bursty"}), spec), Error);
  EXPECT_THROW(core::apply_overload_cli(parse({"--shedder=drop-tail"}), spec), Error);
}

// `l2sim run` and `l2sim diff` build their base spec through one function,
// so a flag either reaches both commands or neither.
TEST(RunSpecCli, ClusterFlagsAndDefaults) {
  const auto defaults = core::run_spec_from_cli(parse({}));
  EXPECT_EQ(defaults.sim.nodes, 16);
  EXPECT_EQ(defaults.sim.node.cache_bytes, 32 * kMiB);
  EXPECT_EQ(defaults.sim.node.cache_policy, cluster::CachePolicy::kLru);
  EXPECT_DOUBLE_EQ(defaults.set_shrink_seconds, 2.0);  // 20 s x the default 0.1 scale
  EXPECT_TRUE(defaults.sim.fault_plan.crashes.empty());

  const auto spec = core::run_spec_from_cli(
      parse({"--nodes", "8", "--cache", "16", "--gdsf", "--rate", "500", "--rpc", "4",
             "--skew", "0.5", "--fail", "3@1.5", "--scale", "0.05", "--shedder", "aimd"}));
  EXPECT_EQ(spec.sim.nodes, 8);
  EXPECT_EQ(spec.sim.node.cache_bytes, 16 * kMiB);
  EXPECT_EQ(spec.sim.node.cache_policy, cluster::CachePolicy::kGdsf);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.open_loop_rate, 500.0);
  EXPECT_DOUBLE_EQ(spec.sim.persistence.mean_requests_per_connection, 4.0);
  EXPECT_DOUBLE_EQ(spec.sim.arrival.dns_entry_skew, 0.5);
  ASSERT_EQ(spec.sim.fault_plan.crashes.size(), 1u);
  EXPECT_EQ(spec.sim.fault_plan.crashes[0].node, 3);
  EXPECT_DOUBLE_EQ(spec.sim.fault_plan.crashes[0].at_seconds, 1.5);
  EXPECT_DOUBLE_EQ(spec.set_shrink_seconds, 1.0);
  EXPECT_EQ(spec.sim.overload.shedder, core::ShedderKind::kAimd);
  EXPECT_DOUBLE_EQ(core::run_spec_from_cli(parse({"--shrink", "7"})).set_shrink_seconds, 7.0);
}

TEST(RunSpecCli, TopologyFlagsReachTheSpec) {
  struct Row {
    std::vector<const char*> argv;
    net::TopologyKind kind;
    int racks;
    int fat_tree_k;
  };
  const std::vector<Row> rows = {
      {{}, net::TopologyKind::kSingleSwitch, 4, 4},
      {{"--topology", "single"}, net::TopologyKind::kSingleSwitch, 4, 4},
      {{"--topology", "rack", "--racks", "2"}, net::TopologyKind::kRackAware, 2, 4},
      {{"--topology", "fattree", "--fat-tree-k", "6"}, net::TopologyKind::kFatTree, 4, 6},
  };
  for (const auto& row : rows) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), row.argv.begin(), row.argv.end());
    const CliArgs a(static_cast<int>(argv.size()), argv.data(), 1);
    const auto topo = core::run_spec_from_cli(a).sim.topology;
    EXPECT_EQ(topo.kind, row.kind) << (row.argv.empty() ? "(none)" : row.argv[1]);
    EXPECT_EQ(topo.racks, row.racks);
    EXPECT_EQ(topo.fat_tree_k, row.fat_tree_k);
  }
  const auto rack = core::run_spec_from_cli(parse({"--topology=rack", "--oversub=2",
                                                   "--segment-bytes=512", "--flow-level"}));
  EXPECT_DOUBLE_EQ(rack.sim.topology.oversubscription, 2.0);
  EXPECT_EQ(rack.sim.topology.segment_bytes, 512u);
  EXPECT_TRUE(rack.sim.topology.flow_level);

  // An unknown kind stops `l2sim run` and `l2sim diff` alike.
  try {
    (void)core::run_spec_from_cli(parse({"--nodes", "4", "--topology", "bogus"}));
    ADD_FAILURE() << "accepted --topology bogus";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--topology: unknown kind 'bogus'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace l2s
