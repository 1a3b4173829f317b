#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "l2sim/common/csv.hpp"
#include "l2sim/common/env.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/common/table.hpp"

namespace l2s {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "long-header"});
  t.cell("xx").cell(1.5, 1).end_row();
  const std::string out = t.to_string();
  EXPECT_NE(out.find("a   long-header"), std::string::npos);
  EXPECT_NE(out.find("xx  1.5"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, CountsRowsAndColumns) {
  TextTable t({"x", "y", "z"});
  EXPECT_EQ(t.columns(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.cell(1LL).cell(2LL).cell(3LL).end_row();
  EXPECT_EQ(t.rows(), 1u);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(10.0, 0), "10");
  EXPECT_EQ(format_double(-1.005, 1), "-1.0");
}

TEST(CsvWriter, InactiveWhenDirEmpty) {
  CsvWriter csv("", "name", {"a"});
  EXPECT_FALSE(csv.active());
  csv.add_row({"1"});  // must not crash
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string dir = ::testing::TempDir();
  {
    CsvWriter csv(dir, "l2sim_test_csv", {"a", "b"});
    EXPECT_TRUE(csv.active());
    csv.add_row({"1", "2"});
    csv.add_row({"3", "4"});
  }
  std::ifstream in(dir + "/l2sim_test_csv.csv");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a,b\n1,2\n3,4\n");
  std::remove((dir + "/l2sim_test_csv.csv").c_str());
}

// A write that fails (here: a file that is a symlink to /dev/full) stops
// the writer at close() with the path, instead of passing silently.
TEST(CsvWriter, CloseReportsAFailedWrite) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/l2sim_full_csv.csv";
  std::remove(path.c_str());
  ASSERT_EQ(::symlink("/dev/full", path.c_str()), 0);
  CsvWriter csv(dir, "l2sim_full_csv", {"a", "b"});
  csv.add_row({"1", "2"});
  try {
    csv.close();
    ADD_FAILURE() << "close() did not report the failed write";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "cannot write output file: " + path);
  }
  std::remove(path.c_str());
}

TEST(CsvDirFromArgs, ExplicitFlagWins) {
  char prog[] = "prog";
  char flag[] = "--csv=/tmp/somewhere";
  char* argv[] = {prog, flag};
  EXPECT_EQ(csv_dir_from_args(2, argv), "/tmp/somewhere");
}

TEST(Env, DoubleFallback) {
  ::unsetenv("L2SIM_TEST_UNSET");
  EXPECT_DOUBLE_EQ(env_double("L2SIM_TEST_UNSET", 2.5), 2.5);
  ::setenv("L2SIM_TEST_D", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_double("L2SIM_TEST_D", 1.0), 0.25);
  ::setenv("L2SIM_TEST_D", "garbage", 1);
  EXPECT_THROW((void)env_double("L2SIM_TEST_D", 1.0), Error);
  ::setenv("L2SIM_TEST_D", "0.5abc", 1);  // trailing garbage
  EXPECT_THROW((void)env_double("L2SIM_TEST_D", 1.0), Error);
  ::setenv("L2SIM_TEST_D", "1e999", 1);  // overflows a double
  EXPECT_THROW((void)env_double("L2SIM_TEST_D", 1.0), Error);
  ::setenv("L2SIM_TEST_D", "nan", 1);
  EXPECT_THROW((void)env_double("L2SIM_TEST_D", 1.0), Error);
  ::unsetenv("L2SIM_TEST_D");
}

TEST(Env, IntFallback) {
  ::unsetenv("L2SIM_TEST_UNSET");
  EXPECT_EQ(env_int("L2SIM_TEST_UNSET", 7), 7);
  ::setenv("L2SIM_TEST_I", "42", 1);
  EXPECT_EQ(env_int("L2SIM_TEST_I", 7), 42);
  ::setenv("L2SIM_TEST_I", "4x", 1);  // trailing garbage
  EXPECT_THROW((void)env_int("L2SIM_TEST_I", 7), Error);
  ::setenv("L2SIM_TEST_I", "1e9", 1);  // not base-10 integer syntax
  EXPECT_THROW((void)env_int("L2SIM_TEST_I", 7), Error);
  ::setenv("L2SIM_TEST_I", "99999999999999999999", 1);  // overflows int64
  EXPECT_THROW((void)env_int("L2SIM_TEST_I", 7), Error);
  ::unsetenv("L2SIM_TEST_I");
}

TEST(Env, BenchScaleValidates) {
  ::setenv("L2SIM_SCALE", "0", 1);
  EXPECT_THROW((void)bench_scale(), Error);
  ::setenv("L2SIM_SCALE", "1.5", 1);
  EXPECT_THROW((void)bench_scale(), Error);
  ::setenv("L2SIM_SCALE", "0.5abc", 1);
  EXPECT_THROW((void)bench_scale(), Error);
  ::setenv("L2SIM_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.5);
  ::unsetenv("L2SIM_SCALE");
}

TEST(ThreadBudget, EnvOverrideAndDefault) {
  ASSERT_EQ(setenv("L2SIM_THREADS", "3", 1), 0);
  EXPECT_EQ(thread_budget(), 3u);
  ASSERT_EQ(setenv("L2SIM_THREADS", "-1", 1), 0);
  EXPECT_THROW((void)thread_budget(), Error);
  ASSERT_EQ(setenv("L2SIM_THREADS", "4x", 1), 0);
  EXPECT_THROW((void)thread_budget(), Error);
  ASSERT_EQ(setenv("L2SIM_THREADS", "1e9", 1), 0);
  EXPECT_THROW((void)thread_budget(), Error);
  ASSERT_EQ(setenv("L2SIM_THREADS", "4294967297", 1), 0);  // UINT_MAX + 2
  EXPECT_THROW((void)thread_budget(), Error);
  ASSERT_EQ(unsetenv("L2SIM_THREADS"), 0);
  EXPECT_GE(thread_budget(), 1u);  // hardware concurrency, floored at 1
}

}  // namespace
}  // namespace l2s
