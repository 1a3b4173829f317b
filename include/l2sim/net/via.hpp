// M-VIA-style user-level messaging over the cluster network.
//
// A point-to-point message charges: 3 us sender CPU, 6 us + payload/1Gbit/s
// sender NIC, the topology path (1 us for the paper's single switch; ToR /
// core hops and capacitated link transfers for the multi-switch
// topologies), 6 us + payload/1Gbit/s receiver NIC, 3 us receiver CPU —
// 19 us one-way for a 4-byte message on the single switch, matching the
// paper's M-VIA measurements. Broadcasts are charged as N-1
// point-to-point messages, exactly as the paper's simulator does — each
// one charged along its own topology path, so a cross-rack destination
// pays its real hop count.
//
// Every unicast message past the sender lives in a record of the
// network's message pool (continuation, endpoints, size, NIC time, fault
// decisions), and each hop schedules only `[this, id]`. A broadcast takes
// one record of the broadcast pool (handler, source, size, NIC time,
// live-message count) and no message record at all: each of its messages
// is the pair (broadcast, destination). The N-1 sends queue as one run on
// the sender's CPU; a message with a healthy fault draw joins the
// broadcast's run at the tail of the sender's NIC-tx queue, and a
// dropped, duplicated or delayed one leaves that run and takes a NIC job
// of its own. The topology hop captures (broadcast, destination, fault
// draw). On arrival the broadcast id joins the receiver's inbox, a FIFO
// of 4-byte ids, and the receiver's rx NIC and then its CPU each hold
// delivery runs whose last stage pops the inbox: a waiting delivery costs
// 4 bytes, not a queue entry. Both pools grow in fixed-size chunks
// threaded on a free list, so a record never moves while it is in use.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "l2sim/des/resource.hpp"
#include "l2sim/net/nic.hpp"
#include "l2sim/net/params.hpp"
#include "l2sim/net/topology.hpp"

namespace l2s::net {

class FlowNetwork;

/// What the (optional) fault model decided for one message. Defaults are a
/// healthy link. Duplicates are suppressed at the receiver: the copy burns
/// NIC service time, the delivery handler still fires exactly once.
struct LinkFault {
  bool drop = false;
  bool duplicate = false;
  SimTime extra_delay = 0;
};

/// Per-message fault oracle, installed by the fault layer. The interface
/// lives here (not in l2sim/fault) so net/ has no dependency on the fault
/// subsystem; fault::FaultRuntime implements it.
class LinkFaultModel {
 public:
  virtual ~LinkFaultModel() = default;
  [[nodiscard]] virtual LinkFault on_message(int src, int dst) = 0;
};

class ViaNetwork {
 public:
  struct Endpoint {
    des::Resource* cpu = nullptr;
    Nic* nic = nullptr;
  };

  ViaNetwork(des::Scheduler& sched, Topology& topology, const NetParams& params);

  /// Register a node's CPU and NIC; returns its endpoint id.
  int add_endpoint(Endpoint ep);

  /// Wire-level transfer only (sender NIC -> topology path -> receiver
  /// NIC); the caller accounts for CPU time itself (used for request
  /// hand-offs whose CPU cost is the policy's forwarding cost, not the VIA
  /// send overhead).
  void transmit(int src, int dst, Bytes bytes, des::EventFn on_delivered);

  /// Bulk data transfer (request-forwarding replies, cache-fill payloads).
  /// Identical to transmit() unless a flow network is attached
  /// (set_flow_network), in which case the payload rides the flow-level
  /// max-min bandwidth sharing instead of per-segment NIC/link events.
  void bulk(int src, int dst, Bytes bytes, des::EventFn on_delivered);

  /// Full VIA send including both CPU overheads.
  void send(int src, int dst, Bytes bytes, des::EventFn on_delivered);

  /// N-1 point-to-point sends, to every other endpoint in id order;
  /// `on_delivered(dst)` fires per delivered destination. The messages
  /// share one copy of `on_delivered`, released once the last of them is
  /// delivered or dropped. Every event equals that of N-1 send() calls.
  void broadcast(int src, Bytes bytes, std::function<void(int dst)> on_delivered);

  /// Install (or clear, with nullptr) the per-message fault oracle. The
  /// model must outlive the network or be cleared before it dies.
  void set_fault_model(LinkFaultModel* model) { fault_model_ = model; }

  /// Attach (or clear) the flow-level bulk-transfer network; it must
  /// outlive the VIA network or be cleared first.
  void set_flow_network(FlowNetwork* flow) { flow_ = flow; }

  [[nodiscard]] const Topology& topology() const { return topo_; }

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  /// Messages sent but neither dropped nor yet handed to the receiver NIC —
  /// the telemetry probe samples this. Clamped at 0 because a mid-flight
  /// warm-up reset can make the counters momentarily inconsistent.
  [[nodiscard]] std::uint64_t in_flight() const {
    const std::uint64_t settled = dropped_ + delivered_;
    return settled >= messages_ ? 0 : messages_ - settled;
  }
  [[nodiscard]] int endpoints() const { return static_cast<int>(endpoints_.size()); }
  /// Message records the pool holds, free or in flight: a multiple of the
  /// chunk size, never shrinking. Only unicast messages take records.
  [[nodiscard]] std::size_t message_pool_capacity() const { return message_pool_.capacity(); }
  /// Message records in flight.
  [[nodiscard]] std::size_t message_records_in_use() const { return message_pool_.in_use(); }

  /// Zero every counter, including the fault-layer ones. (This used to
  /// clear only messages_, which made warm-up drops bleed into measured
  /// statistics once the fault layer landed.)
  void reset_stats() {
    messages_ = 0;
    dropped_ = 0;
    duplicated_ = 0;
    delayed_ = 0;
    delivered_ = 0;
  }

 private:
  /// Which legs a message pays: send() adds both CPU legs to the wire
  /// path; flow-mode bulk() replaces the NIC and topology legs with the
  /// flow network.
  enum class Kind : std::uint8_t { kWire, kSend, kFlow };

  static constexpr std::uint32_t kNoRecord = ~std::uint32_t{0};

  /// Records of type T (which has a `next_free` link) in fixed-size
  /// chunks threaded on a free list. Chunks never move, so a record stays
  /// put while a handler that holds it takes new ones.
  template <typename T>
  class Pool {
   public:
    [[nodiscard]] std::uint32_t acquire();
    void release(std::uint32_t id) {
      T& r = (*this)[id];
      r.next_free = free_head_;
      free_head_ = id;
      --in_use_;
    }
    [[nodiscard]] T& operator[](std::uint32_t id) {
      return chunks_[id >> kChunkBits][id & (kChunkSize - 1)];
    }
    [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkSize; }
    [[nodiscard]] std::size_t in_use() const { return in_use_; }

   private:
    static constexpr std::uint32_t kChunkBits = 10;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::uint32_t free_head_ = kNoRecord;
    std::size_t in_use_ = 0;
  };

  /// The tag of every delivery run on a receiver's rx NIC and CPU. The
  /// sender NIC's runs carry broadcast record id + 1, always below it.
  static constexpr std::uint32_t kDeliveryTag = ~std::uint32_t{0};

  /// One unicast message past the sender: everything its remaining hops
  /// need.
  struct Message {
    des::EventFn done;        ///< continuation
    SimTime xfer = 0;         ///< NIC service time, paid at both ends
    SimTime extra_delay = 0;  ///< fault-injected delay before the rx NIC
    Bytes bytes = 0;
    int src = 0;
    int dst = 0;
    std::uint32_t next_free = 0;  ///< free-list link while unused
    Kind kind = Kind::kWire;
    bool duplicate = false;   ///< fault-injected copy burns rx NIC time
  };

  /// One broadcast with messages not yet delivered or dropped.
  struct Broadcast {
    std::function<void(int dst)> on_delivered;
    SimTime xfer = 0;         ///< NIC service time of each message
    Bytes bytes = 0;
    int src = 0;
    std::uint32_t live = 0;   ///< messages neither delivered nor dropped
    std::uint32_t next_free = 0;
  };

  void check_pair(int src, int dst) const;
  [[nodiscard]] std::uint32_t acquire(int src, int dst, Bytes bytes, Kind kind,
                                      des::EventFn done);
  void release(std::uint32_t id) {
    message_pool_[id].done = nullptr;
    message_pool_.release(id);
  }
  [[nodiscard]] Message& message(std::uint32_t id) { return message_pool_[id]; }
  /// Count a message leaving its sender's CPU (or, for a wire-only
  /// transfer, its caller) and consult the fault oracle for it.
  [[nodiscard]] LinkFault draw(int src, int dst);

  // The hops of one unicast message, in order.
  void launch(std::uint32_t id);     ///< fault oracle, then depart
  void depart(std::uint32_t id, const LinkFault& fault);  ///< tx NIC or flow
  void traverse(std::uint32_t id);   ///< topology path after the tx NIC
  void traversed(std::uint32_t id);  ///< fault-injected extra delay
  void arrive(std::uint32_t id);     ///< rx NIC (plus a duplicate copy)
  void received(std::uint32_t id);   ///< receiver CPU or `done` directly

  // The hops of broadcast `b`'s message to `dst`, in order.
  /// A run's step: job i passes `hop` the broadcast's i-th destination
  /// from `first` on (every endpoint but the source, in id order).
  template <void (ViaNetwork::*hop)(std::uint32_t, int)>
  [[nodiscard]] des::EventFn walk(std::uint32_t b, int first);
  void leave_cpu(std::uint32_t b, int dst);  ///< fault oracle, then tx NIC
  void leave_nic(std::uint32_t b, int dst);  ///< a healthy message's NIC run step
  void cross(std::uint32_t b, int dst, const LinkFault& fault);  ///< topology path, fault delay
  void land(std::uint32_t b, int dst, bool duplicate);  ///< inbox, rx NIC delivery run
  void to_cpu(int dst);    ///< rx NIC delivery step: CPU delivery run
  void deliver(int dst);   ///< CPU delivery step: pops the inbox, runs the handler
  void settle(std::uint32_t b);  ///< one message done; the last frees `b`

  des::Scheduler& sched_;
  Topology& topo_;
  const NetParams& params_;
  std::vector<Endpoint> endpoints_;
  /// Per endpoint, the broadcasts whose messages reached it and wait in
  /// its rx NIC or CPU, in arrival order.
  std::vector<std::deque<std::uint32_t>> inboxes_;
  Pool<Message> message_pool_;
  Pool<Broadcast> broadcast_pool_;
  LinkFaultModel* fault_model_ = nullptr;
  FlowNetwork* flow_ = nullptr;
  std::uint64_t messages_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace l2s::net
