#include "l2sim/core/engine/connection_pool.hpp"

namespace l2s::core::engine {

void ConnectionPool::grow() {
  const std::size_t size = capacity_ == 0 ? kFirstChunk : capacity_;
  auto chunk = std::make_unique<ConnSlot[]>(size);
  for (std::size_t i = size; i-- > 0;) {
    chunk[i].next_free = free_;
    free_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
  capacity_ += size;
}

}  // namespace l2s::core::engine
