#include "l2sim/net/via.hpp"

#include "l2sim/common/error.hpp"
#include "l2sim/net/flow.hpp"

namespace l2s::net {

namespace {

/// The endpoint after `dst` in a broadcast from `src`: every other
/// endpoint, in id order. next_peer(-1, src) is the first.
int next_peer(int dst, int src) {
  ++dst;
  return dst == src ? dst + 1 : dst;
}

}  // namespace

template <typename T>
std::uint32_t ViaNetwork::Pool<T>::acquire() {
  if (free_head_ == kNoRecord) {
    // Grow by one chunk; records already handed out stay where they are.
    L2S_REQUIRE(chunks_.size() < (std::size_t{kNoRecord} >> kChunkBits));
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    T* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i + 1 < kChunkSize; ++i) chunk[i].next_free = base + i + 1;
    chunk[kChunkSize - 1].next_free = kNoRecord;
    free_head_ = base;
  }
  const std::uint32_t id = free_head_;
  free_head_ = (*this)[id].next_free;
  ++in_use_;
  return id;
}

ViaNetwork::ViaNetwork(des::Scheduler& sched, Topology& topology,
                       const NetParams& params)
    : sched_(sched), topo_(topology), params_(params) {}

int ViaNetwork::add_endpoint(Endpoint ep) {
  L2S_REQUIRE(ep.cpu != nullptr && ep.nic != nullptr);
  endpoints_.push_back(ep);
  inboxes_.emplace_back();
  return static_cast<int>(endpoints_.size()) - 1;
}

void ViaNetwork::check_pair(int src, int dst) const {
  L2S_REQUIRE(src >= 0 && src < endpoints());
  L2S_REQUIRE(dst >= 0 && dst < endpoints());
  L2S_REQUIRE(src != dst);
}

std::uint32_t ViaNetwork::acquire(int src, int dst, Bytes bytes, Kind kind,
                                  des::EventFn done) {
  const std::uint32_t id = message_pool_.acquire();
  Message& m = message(id);
  m.done = std::move(done);
  m.bytes = bytes;
  m.src = src;
  m.dst = dst;
  m.kind = kind;
  return id;
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
  const std::uint32_t b = broadcast_pool_.acquire();
  Broadcast& r = broadcast_pool_[b];
  r.on_delivered = std::move(on_delivered);
  r.xfer = params_.nic_transfer_time(bytes);
  r.bytes = bytes;
  r.src = src;
  r.live = static_cast<std::uint32_t>(endpoints() - 1);
  // One CPU run: job i's step sends to the i-th destination.
  endpoints_[static_cast<std::size_t>(src)].cpu->submit_run(
      params_.cpu_msg_time(), r.live, walk<&ViaNetwork::leave_cpu>(b, next_peer(-1, src)));
}

template <void (ViaNetwork::*hop)(std::uint32_t, int)>
des::EventFn ViaNetwork::walk(std::uint32_t b, int first) {
  return [this, b, src = broadcast_pool_[b].src, dst = first]() mutable {
    const int to = dst;
    dst = next_peer(dst, src);
    (this->*hop)(b, to);
  };
}

LinkFault ViaNetwork::draw(int src, int dst) {
  ++messages_;
  LinkFault fault;
  if (fault_model_ != nullptr) fault = fault_model_->on_message(src, dst);
  if (fault.drop) {
    ++dropped_;
  } else {
    if (fault.duplicate) ++duplicated_;
    if (fault.extra_delay > 0) ++delayed_;
  }
  return fault;
}

void ViaNetwork::launch(std::uint32_t id) {
  Message& m = message(id);
  m.xfer = params_.nic_transfer_time(m.bytes);
  const LinkFault fault = draw(m.src, m.dst);
  if (fault.drop) {
    // On the wire the sender still pushes the bytes out; they die in the
    // network. Flow mode abstracts the NIC queues away, so a dropped bulk
    // transfer burns nothing (the oracle was still consulted, so replay
    // stays aligned with message mode).
    if (m.kind != Kind::kFlow)
      endpoints_[static_cast<std::size_t>(m.src)].nic->tx().submit(m.xfer, []() {});
    release(id);
    return;
  }
  depart(id, fault);
}

void ViaNetwork::depart(std::uint32_t id, const LinkFault& fault) {
  Message& m = message(id);
  m.duplicate = fault.duplicate;
  m.extra_delay = fault.extra_delay;
  if (m.kind == Kind::kFlow) {
    flow_->start(m.src, m.dst, m.bytes, [this, id]() { traversed(id); });
    return;
  }
  endpoints_[static_cast<std::size_t>(m.src)].nic->tx().submit(
      m.xfer, [this, id]() { traverse(id); });
}

void ViaNetwork::leave_cpu(std::uint32_t b, int dst) {
  const Broadcast& r = broadcast_pool_[b];
  const LinkFault fault = draw(r.src, dst);
  des::Resource& tx = endpoints_[static_cast<std::size_t>(r.src)].nic->tx();
  if (fault.drop) {
    tx.submit(r.xfer, []() {});
    settle(b);
    return;
  }
  if (fault.duplicate || fault.extra_delay > 0) {
    // It travels alone; the NIC run breaks here.
    tx.submit(r.xfer, [this, b, dst, fault]() { cross(b, dst, fault); });
    return;
  }
  // A healthy message joins its broadcast's run at the tail of the NIC
  // queue, or starts one there. The tag is free again only once the
  // broadcast's last message is settled, long after its runs are gone.
  const std::uint32_t tag = b + 1;
  if (!tx.extend(tag, r.xfer))
    tx.submit_run(r.xfer, 1, walk<&ViaNetwork::leave_nic>(b, dst), tag);
}

void ViaNetwork::leave_nic(std::uint32_t b, int dst) { cross(b, dst, LinkFault{}); }

void ViaNetwork::cross(std::uint32_t b, int dst, const LinkFault& fault) {
  const Broadcast& r = broadcast_pool_[b];
  topo_.traverse(r.src, dst, r.bytes, [this, b, dst, fault]() {
    if (fault.extra_delay > 0) {
      sched_.after(fault.extra_delay,
                   [this, b, dst, dup = fault.duplicate]() { land(b, dst, dup); });
      return;
    }
    land(b, dst, fault.duplicate);
  });
}

void ViaNetwork::land(std::uint32_t b, int dst, bool duplicate) {
  ++delivered_;
  inboxes_[static_cast<std::size_t>(dst)].push_back(b);
  // Every delivery run's step is the same, so any tail run may take the
  // job; the rx NIC and CPU are FIFO, so the CPU pops ids in push order.
  const SimTime xfer = broadcast_pool_[b].xfer;
  des::Resource& rx = endpoints_[static_cast<std::size_t>(dst)].nic->rx();
  if (!rx.extend(kDeliveryTag, xfer))
    rx.submit_run(xfer, 1, [this, dst]() { to_cpu(dst); }, kDeliveryTag);
  // Receiver-side dedup: the copy costs NIC time, nothing fires.
  if (duplicate) rx.submit(xfer, []() {});
}

void ViaNetwork::to_cpu(int dst) {
  des::Resource& cpu = *endpoints_[static_cast<std::size_t>(dst)].cpu;
  const SimTime service = params_.cpu_msg_time();
  if (!cpu.extend(kDeliveryTag, service))
    cpu.submit_run(service, 1, [this, dst]() { deliver(dst); }, kDeliveryTag);
}

void ViaNetwork::deliver(int dst) {
  auto& inbox = inboxes_[static_cast<std::size_t>(dst)];
  const std::uint32_t b = inbox.front();
  inbox.pop_front();
  // The handler may broadcast, taking records; this one stays put.
  broadcast_pool_[b].on_delivered(dst);
  settle(b);
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
  des::Resource* cpu =
      m.kind == Kind::kSend ? endpoints_[static_cast<std::size_t>(m.dst)].cpu : nullptr;
  des::EventFn done = std::move(m.done);
  release(id);
  // The receiver CPU, when owed, takes over the continuation.
  if (cpu != nullptr) {
    cpu->submit(params_.cpu_msg_time(), std::move(done));
    return;
  }
  done();
}

void ViaNetwork::settle(std::uint32_t b) {
  Broadcast& r = broadcast_pool_[b];
  if (--r.live > 0) return;
  r.on_delivered = nullptr;
  broadcast_pool_.release(b);
}

}  // namespace l2s::net
