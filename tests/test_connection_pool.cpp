// The engine's connection pool: handles turn stale when their slot is
// released, slots never move while the pool grows, and a connection is
// released exactly once.
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/core/engine/connection_pool.hpp"

namespace l2s::core::engine {
namespace {

// Continuations capture handles by value and relocate by memcpy.
static_assert(std::is_trivially_copyable_v<ConnRef>);
static_assert(sizeof(ConnRef) == 16);

TEST(ConnectionPool, OldHandleReadsStaleAfterItsSlotIsReused) {
  ConnectionPool pool;
  const ConnRef first = pool.acquire();
  first->id = 7;
  EXPECT_FALSE(first.stale());
  pool.release(first);
  EXPECT_TRUE(first.stale());
  const ConnRef second = pool.acquire();
  ASSERT_EQ(second.get(), first.get());  // the freed slot is reused
  EXPECT_TRUE(first.stale());
  EXPECT_FALSE(second.stale());
  EXPECT_EQ(second->id, 0u);  // a fresh connection, not the old one's fields
  EXPECT_EQ(pool.live(), 1u);
}

TEST(ConnectionPool, ConnectionStaysPutWhileThePoolGrows) {
  ConnectionPool pool;
  const ConnRef held = pool.acquire();
  cluster::Connection& conn = *held;
  conn.id = 42;
  conn.entry_node = 3;
  const std::size_t before = pool.capacity();
  std::vector<ConnRef> more;
  for (int i = 0; i < 5000; ++i) more.push_back(pool.acquire());
  EXPECT_GE(pool.capacity(), 5001u);
  EXPECT_GT(pool.capacity(), before);
  EXPECT_EQ(held.get(), &conn);
  EXPECT_EQ(conn.id, 42u);
  EXPECT_EQ(conn.entry_node, 3);
  EXPECT_FALSE(held.stale());
  for (const ConnRef c : more) pool.release(c);
  EXPECT_EQ(pool.live(), 1u);
}

TEST(ConnectionPool, SecondReleaseFails) {
  ConnectionPool pool;
  const ConnRef conn = pool.acquire();
  pool.release(conn);
  EXPECT_THROW(pool.release(conn), Error);
  EXPECT_EQ(pool.live(), 0u);
  // Not even once the slot holds another connection.
  const ConnRef next = pool.acquire();
  EXPECT_THROW(pool.release(conn), Error);
  EXPECT_FALSE(next.stale());
  EXPECT_EQ(pool.live(), 1u);
}

}  // namespace
}  // namespace l2s::core::engine
