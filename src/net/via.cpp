#include "l2sim/net/via.hpp"

#include "l2sim/common/error.hpp"
#include "l2sim/net/flow.hpp"

namespace l2s::net {

ViaNetwork::ViaNetwork(des::Scheduler& sched, Topology& topology,
                       const NetParams& params)
    : sched_(sched), topo_(topology), params_(params) {}

int ViaNetwork::add_endpoint(Endpoint ep) {
  L2S_REQUIRE(ep.cpu != nullptr && ep.nic != nullptr);
  endpoints_.push_back(ep);
  return static_cast<int>(endpoints_.size()) - 1;
}

void ViaNetwork::check_pair(int src, int dst) const {
  L2S_REQUIRE(src >= 0 && src < endpoints());
  L2S_REQUIRE(dst >= 0 && dst < endpoints());
  L2S_REQUIRE(src != dst);
}

std::uint32_t ViaNetwork::acquire(int src, int dst, Bytes bytes, Kind kind,
                                  des::EventFn done) {
  if (free_head_ == kNoFree) {
    // Grow by one chunk; records already handed out stay where they are.
    L2S_REQUIRE(chunks_.size() < (std::size_t{kNoFree} >> kChunkBits));
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Message[]>(kChunkSize));
    Message* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i + 1 < kChunkSize; ++i) chunk[i].next_free = base + i + 1;
    chunk[kChunkSize - 1].next_free = kNoFree;
    free_head_ = base;
  }
  const std::uint32_t id = free_head_;
  Message& m = message(id);
  free_head_ = m.next_free;
  m.done = std::move(done);
  m.bytes = bytes;
  m.src = src;
  m.dst = dst;
  m.kind = kind;
  return id;
}

void ViaNetwork::release(std::uint32_t id) {
  Message& m = message(id);
  m.done = nullptr;
  m.next_free = free_head_;
  free_head_ = id;
}

void ViaNetwork::transmit(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  check_pair(src, dst);
  launch(acquire(src, dst, bytes, Kind::kWire, std::move(on_delivered)));
}

void ViaNetwork::bulk(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  // Without a flow network bulk is byte-for-byte a transmit (the
  // single-switch golden digests depend on this equivalence).
  check_pair(src, dst);
  const Kind kind = flow_ != nullptr ? Kind::kFlow : Kind::kWire;
  launch(acquire(src, dst, bytes, kind, std::move(on_delivered)));
}

void ViaNetwork::send(int src, int dst, Bytes bytes, des::EventFn on_delivered) {
  check_pair(src, dst);
  const std::uint32_t id = acquire(src, dst, bytes, Kind::kSend, std::move(on_delivered));
  endpoints_[static_cast<std::size_t>(src)].cpu->submit(params_.cpu_msg_time(),
                                                         [this, id]() { launch(id); });
}

void ViaNetwork::broadcast(int src, Bytes bytes,
                           std::function<void(int dst)> on_delivered) {
  L2S_REQUIRE(src >= 0 && src < endpoints());
  if (endpoints() < 2) return;
  const auto payload =
      std::make_shared<const std::function<void(int dst)>>(std::move(on_delivered));
  for (int dst = 0; dst < endpoints(); ++dst) {
    if (dst == src) continue;
    send(src, dst, bytes, [payload, dst]() { (*payload)(dst); });
  }
}

void ViaNetwork::launch(std::uint32_t id) {
  Message& m = message(id);
  ++messages_;
  m.xfer = params_.nic_transfer_time(m.bytes);
  LinkFault fault;
  if (fault_model_ != nullptr) fault = fault_model_->on_message(m.src, m.dst);
  if (fault.drop) {
    ++dropped_;
    // On the wire the sender still pushes the bytes out; they die in the
    // network. Flow mode abstracts the NIC queues away, so a dropped bulk
    // transfer burns nothing (the oracle was still consulted, so replay
    // stays aligned with message mode).
    if (m.kind != Kind::kFlow)
      endpoints_[static_cast<std::size_t>(m.src)].nic->tx().submit(m.xfer, []() {});
    release(id);
    return;
  }
  if (fault.duplicate) ++duplicated_;
  if (fault.extra_delay > 0) ++delayed_;
  m.duplicate = fault.duplicate;
  m.extra_delay = fault.extra_delay;
  if (m.kind == Kind::kFlow) {
    flow_->start(m.src, m.dst, m.bytes, [this, id]() { traversed(id); });
    return;
  }
  endpoints_[static_cast<std::size_t>(m.src)].nic->tx().submit(
      m.xfer, [this, id]() { traverse(id); });
}

void ViaNetwork::traverse(std::uint32_t id) {
  const Message& m = message(id);
  topo_.traverse(m.src, m.dst, m.bytes, [this, id]() { traversed(id); });
}

void ViaNetwork::traversed(std::uint32_t id) {
  const SimTime extra = message(id).extra_delay;
  if (extra > 0) {
    sched_.after(extra, [this, id]() { arrive(id); });
    return;
  }
  arrive(id);
}

void ViaNetwork::arrive(std::uint32_t id) {
  ++delivered_;
  const Message& m = message(id);
  if (m.kind == Kind::kFlow) {
    received(id);
    return;
  }
  des::Resource& rx = endpoints_[static_cast<std::size_t>(m.dst)].nic->rx();
  rx.submit(m.xfer, [this, id]() { received(id); });
  // Receiver-side dedup: the copy costs NIC time, nothing fires. (Flow
  // mode only counts duplicates.)
  if (m.duplicate) rx.submit(m.xfer, []() {});
}

void ViaNetwork::received(std::uint32_t id) {
  Message& m = message(id);
  des::EventFn done = std::move(m.done);
  des::Resource* cpu =
      m.kind == Kind::kSend ? endpoints_[static_cast<std::size_t>(m.dst)].cpu : nullptr;
  release(id);
  // The receiver CPU, when owed, takes over the continuation.
  if (cpu != nullptr) {
    cpu->submit(params_.cpu_msg_time(), std::move(done));
    return;
  }
  done();
}

}  // namespace l2s::net
