#include "l2sim/core/engine/persistent_path.hpp"

#include "l2sim/common/error.hpp"
#include "l2sim/core/engine/retry.hpp"
#include "l2sim/core/engine/service_path.hpp"

namespace l2s::core::engine {

void PersistentPath::continue_connection(ConnRef conn) {
  const auto att = conn->attempt;
  ctx_.router->forward(ctx_.cfg().request_msg_bytes, [this, conn, att]() {
    if (attempt_stale(conn, att)) return;
    if (!ctx_.service->service_current(conn)) {
      ctx_.retry->abort_connection(conn, obs::DecisionCause::kServiceNodeDown);
      return;
    }
    cluster::Node& n = ctx_.node(conn->service_node);
    n.nic().rx().submit(ctx_.cfg().net.ni_request_time(), [this, conn, att]() {
      if (attempt_stale(conn, att)) return;
      if (!ctx_.service->service_current(conn)) {
        ctx_.retry->abort_connection(conn, obs::DecisionCause::kServiceNodeDown);
        return;
      }
      cluster::Node& node = ctx_.node(conn->service_node);
      conn->arrival = ctx_.now();
      conn->first_arrival = conn->arrival;
      ctx_.retry->arm_deadline(conn);
      ctx_.retry->arm_hedge(conn);
      conn->state = ConnectionState::kParsing;
      node.cpu().submit(node.parse_time(), [this, conn, att]() {
        if (attempt_stale(conn, att)) return;
        persistent_distribute(conn);
      });
    });
  });
}

void PersistentPath::persistent_distribute(ConnRef conn) {
  if (conn->state == ConnectionState::kDone) return;
  if (!ctx_.service->service_current(conn)) {
    ctx_.retry->abort_connection(conn, obs::DecisionCause::kServiceNodeDown);
    return;
  }
  conn->state = ConnectionState::kDispatching;
  const int current = conn->service_node;
  const int target = ctx_.policy->select_next_in_connection(current, conn->request);
  L2S_REQUIRE(target >= 0 && target < ctx_.cfg().nodes);
  conn->t_decided = ctx_.now();
  if (target == current) {
    ctx_.service->begin_service(conn, /*opening=*/false);
    return;
  }
  if (ctx_.cfg().persistence.mode == PersistentMode::kConnectionHandoff) {
    migrate_connection(conn, target);
  } else {
    remote_fetch(conn, target);
  }
}

void PersistentPath::migrate_connection(ConnRef conn, int target) {
  ctx_.note_decision(obs::DecisionKind::kMigrate, obs::DecisionCause::kNone, conn->id,
                     conn->service_node, target, conn->attempt);
  conn->state = ConnectionState::kForwarding;
  const int from = conn->service_node;
  const auto att = conn->attempt;
  cluster::Node& old_node = ctx_.node(from);
  old_node.cpu().submit(ctx_.policy->forward_cpu_time(from), [this, conn, from, target, att]() {
    if (attempt_stale(conn, att)) return;
    ctx_.via->transmit(from, target, ctx_.cfg().request_msg_bytes,
                       [this, conn, from, target, att]() {
      if (attempt_stale(conn, att)) return;
      cluster::Node& new_node = ctx_.node(target);
      new_node.cpu().submit(ctx_.cfg().net.cpu_msg_time(), [this, conn, from, target, att]() {
        if (attempt_stale(conn, att)) return;
        if (!ctx_.node_alive(target)) {
          ctx_.retry->abort_connection(conn, obs::DecisionCause::kPeerNodeDown);
          return;
        }
        // `from` loses the connection (if it is still that incarnation).
        ctx_.service->release_service_count(conn);
        ctx_.node(target).connection_opened();
        conn->counted_in_service = true;
        conn->service_node = target;
        conn->service_epoch = ctx_.node(target).epoch();
        ctx_.policy->on_connection_migrated(from, target, conn->request);
        ctx_.service->begin_service(conn, /*opening=*/false);
      });
    });
  });
}

void PersistentPath::remote_fetch(ConnRef conn, int owner) {
  ctx_.note_decision(obs::DecisionKind::kRemoteFetch, obs::DecisionCause::kNone, conn->id,
                     conn->service_node, owner, conn->attempt);
  // Back-end request forwarding: the connection stays put; the caching
  // node supplies the content over the cluster network and the current
  // node replies to the client. The fetched file is *not* inserted into
  // the local cache (proxy semantics).
  const int current = conn->service_node;
  const auto att = conn->attempt;
  conn->state = ConnectionState::kForwarding;
  cluster::Node& cur = ctx_.node(current);
  cur.cpu().submit(ctx_.policy->forward_cpu_time(current), [this, conn, current, owner, att]() {
    if (attempt_stale(conn, att)) return;
    ctx_.via->transmit(current, owner, ctx_.cfg().request_msg_bytes, [this, conn, current,
                                                                     owner, att]() {
      if (attempt_stale(conn, att)) return;
      cluster::Node& own = ctx_.node(owner);
      own.cpu().submit(ctx_.cfg().net.cpu_msg_time(), [this, conn, current, owner, att]() {
        if (attempt_stale(conn, att)) return;
        if (!ctx_.node_alive(owner) || !ctx_.node_alive(current)) {
          ctx_.retry->abort_connection(conn, obs::DecisionCause::kPeerNodeDown);
          return;
        }
        // The owner's lookup is this request's service start, and its hit or
        // disk read ends the storage stage, as in ServicePath::begin_service.
        cluster::Node& o = ctx_.node(owner);
        conn->t_service = ctx_.now();
        if (o.file_cache().lookup(conn->request.file)) {
          conn->t_disk_done = ctx_.now();
          send_back(conn, current, owner, att);
          return;
        }
        const Bytes file_bytes = ctx_.trace->files().size_of(conn->request.file);
        o.disk().read(file_bytes, [this, conn, file_bytes, current, owner, att]() {
          if (attempt_stale(conn, att)) return;
          ctx_.node(owner).file_cache().insert(conn->request.file, file_bytes);
          conn->t_disk_done = ctx_.now();
          send_back(conn, current, owner, att);
        });
      });
    });
  });
}

void PersistentPath::send_back(ConnRef conn, int current, int owner, std::uint32_t att) {
  cluster::Node& src = ctx_.node(owner);
  // Memory-to-NIC copy at the owner, bulk transfer, then the normal reply
  // path at the connection's node.
  src.cpu().submit(src.reply_time(conn->request.bytes), [this, conn, current, owner,
                                                         att]() {
    if (attempt_stale(conn, att)) return;
    // bulk(): the payload-bearing leg — rides the flow-level network when
    // topology.flow_level is on (identical to transmit() otherwise).
    ctx_.via->bulk(owner, current, conn->request.bytes, [this, conn, current, att]() {
      if (attempt_stale(conn, att)) return;
      cluster::Node& c = ctx_.node(current);
      c.cpu().submit(ctx_.cfg().net.cpu_msg_time(), [this, conn, att]() {
        if (attempt_stale(conn, att)) return;
        ctx_.service->reply_path(conn);
      });
    });
  });
}

}  // namespace l2s::core::engine
