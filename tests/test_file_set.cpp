#include <gtest/gtest.h>

#include "l2sim/common/error.hpp"
#include "l2sim/storage/file_set.hpp"

namespace l2s::storage {
namespace {

TEST(FileSet, SequentialIds) {
  FileSet fs;
  EXPECT_EQ(fs.add(100), 0u);
  EXPECT_EQ(fs.add(200), 1u);
  EXPECT_EQ(fs.count(), 2u);
}

TEST(FileSet, SizesAndWorkingSet) {
  FileSet fs;
  fs.add(1024);
  fs.add(2048);
  EXPECT_EQ(fs.size_of(0), 1024u);
  EXPECT_EQ(fs.size_of(1), 2048u);
  EXPECT_EQ(fs.total_bytes(), 3072u);
  EXPECT_DOUBLE_EQ(fs.avg_kb(), 1.5);
}

TEST(FileSet, EmptyAverageIsZero) {
  const FileSet fs;
  EXPECT_DOUBLE_EQ(fs.avg_kb(), 0.0);
  EXPECT_EQ(fs.total_bytes(), 0u);
}

TEST(FileSet, RejectsZeroSizeAndBadIds) {
  FileSet fs;
  EXPECT_THROW(fs.add(0), l2s::Error);
  fs.add(10);
  EXPECT_THROW((void)fs.size_of(5), l2s::Error);
}

}  // namespace
}  // namespace l2s::storage
