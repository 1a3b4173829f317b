// ConnectionPool: every client connection of a run lives in a pool slot,
// and engine continuations name it by a ConnRef — the slot's address plus
// the generation the slot had when the connection took it.
//
// Slots live in chunks that never move, each new one as large as the pool
// before it (the scheduler's slot-pool scheme), so a Connection& stays
// valid while the pool grows and a handle needs no pool to dereference. ArrivalSource::inject acquires a
// slot; ServicePath::close_connection and RetryManager::fail_connection
// release it as their last act, which bumps the slot's generation. Every
// handle taken before the release then reads stale(), and attempt_stale
// (plus the deadline and hedge timers) drop such a continuation before it
// touches the slot's next occupant. A ConnRef is two words and trivially
// copyable: a continuation capturing `[this, conn]` relocates by memcpy and
// is destroyed without a call, with no reference count to maintain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "l2sim/cluster/connection.hpp"
#include "l2sim/common/error.hpp"

namespace l2s::core::engine {

/// One pool slot: the generation that tells its occupants apart (bumped by
/// every release; next to the connection's state and attempt, which every
/// staleness check reads with it) and the connection.
struct ConnSlot {
  std::uint64_t generation = 0;
  cluster::Connection conn;
  ConnSlot* next_free = nullptr;  ///< free-list link while the slot is free
};

/// A handle to one connection: {slot, generation}. `conn->` reaches the
/// slot's connection; stale() says the connection was closed or failed and
/// its slot released (perhaps to another connection) since the handle was
/// taken.
class ConnRef {
 public:
  [[nodiscard]] cluster::Connection* operator->() const { return &slot_->conn; }
  [[nodiscard]] cluster::Connection& operator*() const { return slot_->conn; }
  [[nodiscard]] cluster::Connection* get() const { return &slot_->conn; }

  [[nodiscard]] bool stale() const { return slot_->generation != generation_; }

 private:
  friend class ConnectionPool;
  ConnRef(ConnSlot* slot, std::uint64_t generation)
      : slot_(slot), generation_(generation) {}

  ConnSlot* slot_ = nullptr;
  std::uint64_t generation_ = 0;
};

static_assert(std::is_trivially_copyable_v<ConnRef>);
static_assert(sizeof(ConnRef) == 16);

class ConnectionPool {
 public:
  ConnectionPool() = default;
  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// A connection with every field at its default, in a free slot.
  [[nodiscard]] ConnRef acquire() {
    if (free_ == nullptr) grow();
    ConnSlot* slot = free_;
    free_ = slot->next_free;
    slot->conn = cluster::Connection{};
    ++live_;
    return ConnRef(slot, slot->generation);
  }

  /// The connection is closed or failed: every handle to it turns stale and
  /// the slot is free for the next connection. `conn` must be live, so a
  /// second release of the same connection fails.
  void release(ConnRef conn) {
    L2S_REQUIRE(!conn.stale());
    ConnSlot* slot = conn.slot_;
    ++slot->generation;
    slot->next_free = free_;
    free_ = slot;
    --live_;
  }

  /// Connections acquired and not yet released.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Slots in the allocated chunks.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::size_t kFirstChunk = 64;

  /// Double the capacity with one new chunk and put its slots on the free
  /// list, lowest address first.
  void grow();

  std::vector<std::unique_ptr<ConnSlot[]>> chunks_;
  ConnSlot* free_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t live_ = 0;
};

}  // namespace l2s::core::engine
