#include "l2sim/core/engine/service_path.hpp"

#include "l2sim/core/engine/admission.hpp"
#include "l2sim/core/engine/arrival.hpp"
#include "l2sim/core/engine/overload.hpp"
#include "l2sim/core/engine/persistent_path.hpp"
#include "l2sim/core/engine/retry.hpp"

namespace l2s::core::engine {

void ServicePath::begin_service(ConnRef conn, bool opening) {
  if (conn->state == ConnectionState::kDone) return;
  if (!service_current(conn)) {
    ctx_.retry->abort_connection(conn, obs::DecisionCause::kServiceNodeDown);
    return;
  }
  cluster::Node& n = ctx_.node(conn->service_node);
  conn->state = ConnectionState::kServing;
  conn->t_service = ctx_.now();
  if (opening) {
    n.connection_opened();
    conn->counted_in_service = true;
    conn->service_epoch = n.epoch();
    ctx_.policy->on_service_start(conn->service_node, conn->request);
  }

  if (n.file_cache().lookup(conn->request.file)) {
    conn->cache_hit = true;
    conn->t_disk_done = ctx_.now();
    reply_path(conn);
    return;
  }
  // Miss: read the whole file from disk, make it resident, then reply.
  const auto att = conn->attempt;
  const int read_node = conn->service_node;
  const int read_epoch = n.epoch();
  const trace::FileId file = conn->request.file;
  const Bytes file_bytes = ctx_.trace->files().size_of(file);
  n.disk().read(file_bytes, [this, conn, file_bytes, file, att, read_node,
                             read_epoch]() {
    // The read happened, so the file is resident whether or not the
    // requesting attempt is still around — the page cache outlives a
    // hung-up client. Skipping this insert for abandoned attempts makes
    // retry storms self-sustaining: timed-out reads never warm the cache,
    // so every retry misses again, forever. Only a crash/restart in
    // between voids the fill (that memory is gone). The fill is the file
    // that was read: by now a persistent connection may carry its next
    // request.
    cluster::Node& node = ctx_.node(read_node);
    if (node.alive() && node.epoch() == read_epoch)
      node.file_cache().insert(file, file_bytes);
    if (attempt_stale(conn, att)) return;
    if (!service_current(conn)) {
      ctx_.retry->abort_connection(conn, obs::DecisionCause::kServiceNodeDown);
      return;
    }
    conn->t_disk_done = ctx_.now();
    reply_path(conn);
  });
}

void ServicePath::reply_path(ConnRef conn) {
  if (conn->state == ConnectionState::kDone) return;
  if (!service_current(conn)) {
    ctx_.retry->abort_connection(conn, obs::DecisionCause::kServiceNodeDown);
    return;
  }
  const auto att = conn->attempt;
  cluster::Node& n = ctx_.node(conn->service_node);
  const Bytes bytes = conn->request.bytes;
  conn->state = ConnectionState::kReplying;
  n.cpu().submit(n.reply_time(bytes), [this, conn, bytes, att]() {
    if (attempt_stale(conn, att)) return;
    cluster::Node& node = ctx_.node(conn->service_node);
    node.nic().tx().submit(ctx_.cfg().net.ni_reply_time(bytes), [this, conn, bytes, att]() {
      if (attempt_stale(conn, att)) return;
      ctx_.router->forward(bytes, [this, conn, att]() {
        if (attempt_stale(conn, att)) return;
        request_finished(conn);
      });
    });
  });
}

void ServicePath::request_finished(ConnRef conn) {
  if (conn->state == ConnectionState::kDone) return;
  conn->completion = ctx_.now();
  ++conn->requests_served;
  ctx_.overload->note_completion(*conn, conn->completion);
  ctx_.note_decision(obs::DecisionKind::kComplete,
                     conn->forwarded() ? obs::DecisionCause::kForwardService
                                       : obs::DecisionCause::kLocalService,
                     conn->id, conn->entry_node, conn->service_node, conn->attempt,
                     conn->cache_hit ? 1 : 0, conn.get());

  if (conn->remaining_requests > 0) {
    std::uint64_t seq = 0;
    trace::Request next{};
    if (ctx_.admission->try_take(seq, next)) {
      --conn->remaining_requests;
      conn->id = seq;
      conn->request = next;
      ctx_.arrival->apply_churn(conn->request);
      ctx_.overload->earn_token();
      // A fresh request on the same connection: new attempt id (stale
      // timers from the previous request must not touch it) and a fresh
      // retry budget.
      ++conn->attempt;
      conn->retries_used = 0;
      conn->hedges_used = 0;
      ctx_.persistent->continue_connection(conn);
      return;
    }
  }
  close_connection(conn);
}

void ServicePath::close_connection(ConnRef conn) {
  conn->state = ConnectionState::kDone;
  cluster::Node& n = ctx_.node(conn->service_node);
  // A completion that limps in across its node's crash+restart must not
  // touch the fresh incarnation's count (or feed the policy a stale event).
  const bool same_epoch = n.epoch() == conn->service_epoch;
  if (same_epoch) n.connection_closed();
  conn->counted_in_service = false;
  ctx_.note_decision(obs::DecisionKind::kClose, obs::DecisionCause::kNone, conn->id,
                     conn->entry_node, conn->service_node, conn->attempt,
                     static_cast<std::int64_t>(conn->requests_served), conn.get());
  if (same_epoch) ctx_.policy->on_complete(conn->service_node, conn->request);
  ctx_.admission->on_complete();
  ctx_.conns->release(conn);
}

void ServicePath::release_service_count(ConnRef conn) {
  if (!conn->counted_in_service) return;
  conn->counted_in_service = false;
  cluster::Node& n = ctx_.node(conn->service_node);
  // A dead node's bookkeeping died with it; a recovered node restarted
  // with a zeroed count, so a pre-crash epoch must not decrement it.
  if (n.alive() && n.epoch() == conn->service_epoch) n.connection_closed();
}

bool ServicePath::service_current(ConnRef conn) const {
  const cluster::Node& n = ctx_.node(conn->service_node);
  if (!n.alive()) return false;
  return !conn->counted_in_service || n.epoch() == conn->service_epoch;
}

}  // namespace l2s::core::engine
