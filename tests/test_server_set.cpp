#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <tuple>
#include <vector>

#include "l2sim/common/rng.hpp"
#include "l2sim/des/resource.hpp"
#include "l2sim/net/nic.hpp"
#include "l2sim/net/via.hpp"
#include "l2sim/policy/server_set.hpp"

namespace l2s::policy {
namespace {

using Nodes = std::vector<int>;

TEST(ServerSetMap, EmptyForUnknownFile) {
  const ServerSetMap empty(3);
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_TRUE(empty.members(2, 42).empty());
  EXPECT_FALSE(empty.contains(0, 42, 0));
  EXPECT_EQ(empty.last_modified(1, 42), 0);
  EXPECT_TRUE(empty.share(0, 42).nodes().empty());

  // Ids below the highest one assigned, and past the index's end; and
  // the replicas that never heard of a file with a row.
  ServerSetMap m(2);
  m.add(0, 5, 1, 100);
  EXPECT_EQ(m.rows(), 1u);
  for (const storage::FileId id : {0u, 4u, 6u, 1'000'000u}) {
    EXPECT_TRUE(m.members(0, id).empty()) << id;
    EXPECT_EQ(m.last_modified(0, id), 0) << id;
    EXPECT_TRUE(m.share(0, id).same_as(ServerSetMap::List{})) << id;
  }
  EXPECT_TRUE(m.members(1, 5).empty());
  EXPECT_EQ(m.last_modified(1, 5), 0);
  // Reading or removing creates no row.
  m.remove(1, 77, 0, 999);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_THROW(static_cast<void>(m.members(2, 5)), l2s::Error);
  EXPECT_THROW(m.add(-1, 5, 0, 0), l2s::Error);
  EXPECT_THROW(ServerSetMap(0), l2s::Error);
}

TEST(ServerSetMap, AddAndContains) {
  ServerSetMap m;
  m.add(0, 1, 3, 100);
  m.add(0, 1, 5, 200);
  EXPECT_TRUE(m.contains(0, 1, 3));
  EXPECT_TRUE(m.contains(0, 1, 5));
  EXPECT_FALSE(m.contains(0, 1, 4));
  EXPECT_EQ(m.members(0, 1).size(), 2u);
  EXPECT_EQ(m.last_modified(0, 1), 200);
}

TEST(ServerSetMap, AddDuplicateIsNoOp) {
  ServerSetMap m;
  m.add(0, 1, 3, 100);
  m.add(0, 1, 3, 500);
  EXPECT_EQ(m.members(0, 1).size(), 1u);
  EXPECT_EQ(m.last_modified(0, 1), 100);  // unchanged: no modification occurred
}

TEST(ServerSetMap, RemoveUpdatesTimestamp) {
  ServerSetMap m;
  m.add(0, 1, 3, 100);
  m.add(0, 1, 4, 100);
  m.remove(0, 1, 3, 300);
  EXPECT_FALSE(m.contains(0, 1, 3));
  EXPECT_EQ(m.last_modified(0, 1), 300);
  // Removing an absent member changes nothing.
  m.remove(0, 1, 9, 999);
  EXPECT_EQ(m.last_modified(0, 1), 300);
  m.remove(0, 77, 0, 999);  // unknown file: no-op
  EXPECT_EQ(m.last_modified(0, 77), 0);
}

TEST(ServerSetMap, ReplaceAdoptsMembership) {
  ServerSetMap m(2);  // replica 0 is the origin
  m.add(0, 1, 4, 10);
  m.add(0, 1, 5, 10);
  m.add(0, 1, 6, 10);
  m.add(1, 1, 0, 10);
  m.adopt(1, 1, m.share(0, 1), 50);
  EXPECT_EQ(m.members(1, 1), (Nodes{4, 5, 6}));
  EXPECT_EQ(m.last_modified(1, 1), 50);
  EXPECT_EQ(m.last_modified(0, 1), 10);
  // Both replicas hold the one list.
  EXPECT_TRUE(m.share(1, 1).same_as(m.share(0, 1)));
  // Adopting can also create a set for a new file.
  m.adopt(1, 2, m.share(0, 1), 60);
  EXPECT_TRUE(m.contains(1, 2, 5));
  EXPECT_EQ(m.last_modified(1, 2), 60);
  EXPECT_TRUE(m.members(0, 2).empty());
  EXPECT_EQ(m.rows(), 2u);
}

TEST(ServerSetMap, CountsFilesAndMembers) {
  ServerSetMap m(2);
  m.add(0, 1, 0, 0);
  m.add(0, 1, 1, 0);
  m.add(0, 2, 0, 0);
  m.add(1, 2, 1, 7);
  EXPECT_EQ(m.members(0, 1).size(), 2u);
  EXPECT_EQ(m.members(0, 2).size(), 1u);
  m.clear(0);
  EXPECT_TRUE(m.members(0, 1).empty());
  EXPECT_TRUE(m.members(0, 2).empty());
  EXPECT_EQ(m.last_modified(0, 1), 0);
  // The other replica keeps its sets, and the rows stay.
  EXPECT_EQ(m.members(1, 2), Nodes{1});
  EXPECT_EQ(m.last_modified(1, 2), 7);
  EXPECT_EQ(m.rows(), 2u);
}

TEST(ServerSetMap, AdoptedListIgnoresTheOriginsLaterChanges) {
  ServerSetMap m(2);  // 0 is the origin, 1 the receiver
  m.add(0, 3, 1, 10);
  m.add(0, 3, 2, 10);
  m.adopt(1, 3, m.share(0, 3), 20);
  const auto held = m.share(1, 3);

  m.add(0, 3, 7, 30);
  m.remove(0, 3, 1, 40);
  EXPECT_EQ(m.members(0, 3), (Nodes{2, 7}));
  EXPECT_EQ(m.members(1, 3), (Nodes{1, 2}));
  EXPECT_TRUE(m.share(1, 3).same_as(held));
  EXPECT_EQ(m.last_modified(1, 3), 20);

  // And the receiver's own changes leave the origin's old list alone.
  m.remove(1, 3, 2, 50);
  EXPECT_EQ(m.members(1, 3), Nodes{1});
  EXPECT_EQ(held.nodes(), (Nodes{1, 2}));
}

TEST(ServerSetMap, MemberOrderSurvivesAddRemoveAndAdopt) {
  ServerSetMap m(2);
  for (const int node : {9, 2, 7, 4, 0}) m.add(0, 8, node, 1);
  EXPECT_EQ(m.members(0, 8), (Nodes{9, 2, 7, 4, 0}));
  m.remove(0, 8, 7, 2);
  EXPECT_EQ(m.members(0, 8), (Nodes{9, 2, 4, 0}));
  m.remove(0, 8, 9, 3);
  m.add(0, 8, 5, 4);
  EXPECT_EQ(m.members(0, 8), (Nodes{2, 4, 0, 5}));
  m.adopt(1, 8, m.share(0, 8), 5);
  m.add(1, 8, 1, 6);
  EXPECT_EQ(m.members(1, 8), (Nodes{2, 4, 0, 5, 1}));
  EXPECT_EQ(m.members(0, 8), (Nodes{2, 4, 0, 5}));
}

TEST(ServerSetMap, ClearThenAdopt) {
  ServerSetMap m(2);
  m.add(0, 6, 3, 10);
  m.add(1, 6, 1, 5);
  m.add(1, 900, 2, 5);
  m.clear(1);
  m.adopt(1, 6, m.share(0, 6), 70);
  EXPECT_EQ(m.members(1, 6), Nodes{3});
  EXPECT_EQ(m.last_modified(1, 6), 70);
  EXPECT_TRUE(m.members(1, 900).empty());
  m.add(1, 6, 4, 80);
  EXPECT_EQ(m.members(1, 6), (Nodes{3, 4}));
  EXPECT_EQ(m.members(0, 6), Nodes{3});
}

TEST(ServerSetMap, RowsSpanManyChunks) {
  // 1000 replicas put four rows in a chunk; 1 replica 4096.
  for (const int replicas : {1, 1000}) {
    ServerSetMap m(replicas);
    for (storage::FileId f = 0; f < 5000; f += 3)
      m.add(static_cast<int>(f) % replicas, f, static_cast<int>(f % 7), f);
    for (storage::FileId f = 0; f < 5000; ++f) {
      const int replica = static_cast<int>(f) % replicas;
      if (f % 3 == 0) {
        EXPECT_EQ(m.members(replica, f), Nodes{static_cast<int>(f % 7)}) << f;
        EXPECT_EQ(m.last_modified(replica, f), f) << f;
      } else {
        EXPECT_TRUE(m.members(replica, f).empty()) << f;
      }
    }
    EXPECT_EQ(m.rows(), 1667u);
  }
}

// --- against the per-node tables it replaced ---------------------------------

/// One replica as its own table: a dense vector by file id of shared
/// immutable lists, the structure every L2S node used to keep for itself.
class ReferenceSetMap {
 public:
  using Members = std::shared_ptr<const Nodes>;

  [[nodiscard]] const Nodes& members(storage::FileId file) const {
    const Entry* e = find(file);
    return e == nullptr || !e->nodes ? kNone : *e->nodes;
  }
  [[nodiscard]] bool contains(storage::FileId file, int node) const {
    const auto& m = members(file);
    return std::find(m.begin(), m.end(), node) != m.end();
  }
  void add(storage::FileId file, int node, SimTime now) {
    if (contains(file, node)) return;
    auto next = std::make_shared<Nodes>(members(file));
    next->push_back(node);
    Entry& entry = entry_for(file);
    entry.nodes = std::move(next);
    entry.modified = now;
  }
  void remove(storage::FileId file, int node, SimTime now) {
    const auto& old = members(file);
    const auto pos = std::find(old.begin(), old.end(), node);
    if (pos == old.end()) return;
    auto next = std::make_shared<Nodes>(old.begin(), pos);
    next->insert(next->end(), pos + 1, old.end());
    Entry& entry = entries_[file];
    entry.nodes = std::move(next);
    entry.modified = now;
  }
  [[nodiscard]] Members shared_members(storage::FileId file) const {
    const Entry* e = find(file);
    return e == nullptr ? nullptr : e->nodes;
  }
  void adopt(storage::FileId file, Members members, SimTime now) {
    Entry& entry = entry_for(file);
    entry.nodes = std::move(members);
    entry.modified = now;
  }
  [[nodiscard]] SimTime last_modified(storage::FileId file) const {
    const Entry* e = find(file);
    return e == nullptr ? 0 : e->modified;
  }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    Members nodes;
    SimTime modified = 0;
  };
  [[nodiscard]] const Entry* find(storage::FileId file) const {
    return file < entries_.size() ? &entries_[file] : nullptr;
  }
  Entry& entry_for(storage::FileId file) {
    if (file >= entries_.size()) entries_.resize(std::size_t{file} + 1);
    return entries_[file];
  }
  std::vector<Entry> entries_;
  inline static const Nodes kNone{};
};

// Random add / remove / adopt / clear over N replicas and a few hundred
// files, against N reference tables. Adopts take a list shared some
// operations earlier, as a broadcast delivered late does, so receivers
// often adopt a list its origin has since replaced. After every operation
// each replica must agree on every file's members, on contains() for
// every node, and on the last-modified time.
TEST(ServerSetMap, MatchesPerNodeReferenceTables) {
  constexpr int kReplicas = 6;
  constexpr storage::FileId kFiles = 200;
  Rng rng(0x5E75E7);
  ServerSetMap table(kReplicas);
  std::vector<ReferenceSetMap> ref(kReplicas);
  struct InFlight {
    storage::FileId file;
    ServerSetMap::List list;
    ReferenceSetMap::Members ref_list;
  };
  std::deque<InFlight> in_flight;
  const auto pick = [&](std::uint64_t n) { return static_cast<int>(rng.next_below(n)); };

  for (SimTime now = 1; now <= 3000; ++now) {
    const int replica = pick(kReplicas);
    // Small ids are hot, so sets grow, shrink and get shared repeatedly.
    const auto file = static_cast<storage::FileId>(pick(2) == 0 ? pick(12) : pick(kFiles));
    const int node = pick(kReplicas + 2);
    const int op = pick(100);
    if (op < 40) {
      table.add(replica, file, node, now);
      ref[static_cast<std::size_t>(replica)].add(file, node, now);
    } else if (op < 60) {
      table.remove(replica, file, node, now);
      ref[static_cast<std::size_t>(replica)].remove(file, node, now);
    } else if (op < 80) {
      in_flight.push_back({file, table.share(replica, file),
                           ref[static_cast<std::size_t>(replica)].shared_members(file)});
    } else if (op < 99) {
      if (in_flight.empty()) continue;
      const std::size_t i = static_cast<std::size_t>(pick(in_flight.size()));
      const InFlight& m = in_flight[i];
      table.adopt(replica, m.file, m.list, now);
      ref[static_cast<std::size_t>(replica)].adopt(m.file, m.ref_list, now);
      if (pick(2) == 0) in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      table.clear(replica);
      ref[static_cast<std::size_t>(replica)].clear();
    }
    for (int r = 0; r < kReplicas; ++r) {
      const ReferenceSetMap& want = ref[static_cast<std::size_t>(r)];
      for (storage::FileId f = 0; f < kFiles; ++f) {
        ASSERT_EQ(table.members(r, f), want.members(f)) << "t " << now << " replica " << r;
        ASSERT_EQ(table.last_modified(r, f), want.last_modified(f))
            << "t " << now << " replica " << r << " file " << f;
        for (int n = 0; n < kReplicas + 2; ++n)
          ASSERT_EQ(table.contains(r, f, n), want.contains(f, n)) << "t " << now;
      }
    }
  }
  EXPECT_LE(table.rows(), std::size_t{kFiles});
  EXPECT_GT(table.rows(), 80u);
}

// A broadcast captures the origin's list and may still be pending when
// the table dies: a policy dies before the scheduler that holds its
// broadcasts, as a ClusterSimulation aborted mid-run does. The list must
// outlive its table, and fire (or die with the network) intact.
TEST(ServerSetMap, CapturedListOutlivesItsTable) {
  constexpr int kNodes = 4;
  des::Scheduler sched;
  net::NetParams params;
  const auto fabric = net::Topology::make({}, sched, params, kNodes);
  net::ViaNetwork via(sched, *fabric, params);
  std::vector<std::unique_ptr<des::Resource>> cpus;
  std::vector<std::unique_ptr<net::Nic>> nics;
  for (int i = 0; i < kNodes; ++i) {
    cpus.push_back(std::make_unique<des::Resource>(sched, "cpu"));
    nics.push_back(std::make_unique<net::Nic>(sched, "nic"));
    via.add_endpoint({cpus.back().get(), nics.back().get()});
  }
  std::vector<std::tuple<int, Nodes>> seen;
  auto table = std::make_unique<ServerSetMap>(kNodes);
  table->add(0, 7, 2, 1);
  table->add(0, 7, 3, 1);
  via.broadcast(0, 16, [&seen, members = table->share(0, 7)](int dst) {
    seen.emplace_back(dst, members.nodes());
  });
  // A second broadcast, 8 ms on the wire per message, is still leaving
  // its sender when the run stops: the network destroys it.
  via.broadcast(1, 1'000'000, [members = table->share(0, 7)](int) {
    ADD_FAILURE() << "ran " << members.nodes().size();
  });
  // The origin replaces its list before the table goes.
  table->remove(0, 7, 2, 2);
  table.reset();
  sched.run_until(100'000);
  EXPECT_EQ(seen, (std::vector<std::tuple<int, Nodes>>{{1, {2, 3}}, {2, {2, 3}}, {3, {2, 3}}}));
  // Leaving scope drops the network's pending second broadcast, and the
  // last holder of the list frees it (ASan checks both).
}

}  // namespace
}  // namespace l2s::policy
