#include <gtest/gtest.h>

#include "l2sim/policy/server_set.hpp"

namespace l2s::policy {
namespace {

TEST(ServerSetMap, EmptyForUnknownFile) {
  const ServerSetMap empty;
  EXPECT_TRUE(empty.members(42).empty());
  EXPECT_FALSE(empty.contains(42, 0));
  EXPECT_EQ(empty.last_modified(42), 0);
  EXPECT_EQ(empty.shared_members(42), nullptr);

  // Ids below the highest one assigned, and past the table's end.
  ServerSetMap m;
  m.add(5, 1, 100);
  for (const storage::FileId id : {0u, 4u, 6u, 1'000'000u}) {
    EXPECT_TRUE(m.members(id).empty()) << id;
    EXPECT_EQ(m.last_modified(id), 0) << id;
    EXPECT_EQ(m.shared_members(id), nullptr) << id;
  }
}

TEST(ServerSetMap, AddAndContains) {
  ServerSetMap m;
  m.add(1, 3, 100);
  m.add(1, 5, 200);
  EXPECT_TRUE(m.contains(1, 3));
  EXPECT_TRUE(m.contains(1, 5));
  EXPECT_FALSE(m.contains(1, 4));
  EXPECT_EQ(m.members(1).size(), 2u);
  EXPECT_EQ(m.last_modified(1), 200);
}

TEST(ServerSetMap, AddDuplicateIsNoOp) {
  ServerSetMap m;
  m.add(1, 3, 100);
  m.add(1, 3, 500);
  EXPECT_EQ(m.members(1).size(), 1u);
  EXPECT_EQ(m.last_modified(1), 100);  // unchanged: no modification occurred
}

TEST(ServerSetMap, RemoveUpdatesTimestamp) {
  ServerSetMap m;
  m.add(1, 3, 100);
  m.add(1, 4, 100);
  m.remove(1, 3, 300);
  EXPECT_FALSE(m.contains(1, 3));
  EXPECT_EQ(m.last_modified(1), 300);
  // Removing an absent member changes nothing.
  m.remove(1, 9, 999);
  EXPECT_EQ(m.last_modified(1), 300);
  m.remove(77, 0, 999);  // unknown file: no-op
  EXPECT_EQ(m.last_modified(77), 0);
}

TEST(ServerSetMap, ReplaceAdoptsMembership) {
  ServerSetMap origin;
  origin.add(1, 4, 10);
  origin.add(1, 5, 10);
  origin.add(1, 6, 10);
  ServerSetMap m;
  m.add(1, 0, 10);
  m.adopt(1, origin.shared_members(1), 50);
  EXPECT_EQ(m.members(1), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(m.last_modified(1), 50);
  // Both replicas hold the one list.
  EXPECT_EQ(m.shared_members(1), origin.shared_members(1));
  // Adopting can also create a set for a new file.
  m.adopt(2, origin.shared_members(1), 60);
  EXPECT_TRUE(m.contains(2, 5));
  EXPECT_EQ(m.last_modified(2), 60);
}

TEST(ServerSetMap, CountsFilesAndMembers) {
  ServerSetMap m;
  m.add(1, 0, 0);
  m.add(1, 1, 0);
  m.add(2, 0, 0);
  EXPECT_EQ(m.members(1).size(), 2u);
  EXPECT_EQ(m.members(2).size(), 1u);
  m.clear();
  EXPECT_TRUE(m.members(1).empty());
  EXPECT_TRUE(m.members(2).empty());
  EXPECT_EQ(m.last_modified(1), 0);
}

TEST(ServerSetMap, AdoptedListIgnoresTheOriginsLaterChanges) {
  ServerSetMap origin;
  origin.add(3, 1, 10);
  origin.add(3, 2, 10);
  ServerSetMap receiver;
  receiver.adopt(3, origin.shared_members(3), 20);
  const auto held = receiver.shared_members(3);

  origin.add(3, 7, 30);
  origin.remove(3, 1, 40);
  EXPECT_EQ(origin.members(3), (std::vector<int>{2, 7}));
  EXPECT_EQ(receiver.members(3), (std::vector<int>{1, 2}));
  EXPECT_EQ(receiver.shared_members(3), held);
  EXPECT_EQ(receiver.last_modified(3), 20);

  // And the receiver's own changes leave the origin's list alone.
  receiver.remove(3, 2, 50);
  EXPECT_EQ(receiver.members(3), std::vector<int>{1});
  EXPECT_EQ(*held, (std::vector<int>{1, 2}));
}

TEST(ServerSetMap, MemberOrderSurvivesAddRemoveAndAdopt) {
  ServerSetMap m;
  for (const int node : {9, 2, 7, 4, 0}) m.add(8, node, 1);
  EXPECT_EQ(m.members(8), (std::vector<int>{9, 2, 7, 4, 0}));
  m.remove(8, 7, 2);
  EXPECT_EQ(m.members(8), (std::vector<int>{9, 2, 4, 0}));
  m.remove(8, 9, 3);
  m.add(8, 5, 4);
  EXPECT_EQ(m.members(8), (std::vector<int>{2, 4, 0, 5}));
  ServerSetMap other;
  other.adopt(8, m.shared_members(8), 5);
  other.add(8, 1, 6);
  EXPECT_EQ(other.members(8), (std::vector<int>{2, 4, 0, 5, 1}));
}

TEST(ServerSetMap, ClearThenAdopt) {
  ServerSetMap origin;
  origin.add(6, 3, 10);
  ServerSetMap m;
  m.add(6, 1, 5);
  m.add(900, 2, 5);
  m.clear();
  m.adopt(6, origin.shared_members(6), 70);
  EXPECT_EQ(m.members(6), std::vector<int>{3});
  EXPECT_EQ(m.last_modified(6), 70);
  EXPECT_TRUE(m.members(900).empty());
  m.add(6, 4, 80);
  EXPECT_EQ(m.members(6), (std::vector<int>{3, 4}));
  EXPECT_EQ(origin.members(6), std::vector<int>{3});
}

}  // namespace
}  // namespace l2s::policy
