#include "l2sim/core/engine/dispatch.hpp"

#include <algorithm>
#include <cmath>

#include "l2sim/common/error.hpp"
#include "l2sim/core/engine/retry.hpp"
#include "l2sim/core/engine/service_path.hpp"

namespace l2s::core::engine {

void Dispatcher::start_attempt(ConnRef conn) {
  conn->arrival = ctx_.now();
  conn->state = ConnectionState::kArriving;
  conn->service_node = -1;
  conn->cache_hit = false;
  if (conn->attempt == 0) {
    conn->entry_node = ctx_.policy->entry_node(conn->id, conn->request);
    if (ctx_.cfg().arrival.dns_entry_skew > 0.0 && ctx_.policy->entry_is_dns() &&
        ctx_.rng->next_double() < ctx_.cfg().arrival.dns_entry_skew) {
      // A cached DNS translation: the client population behind some name
      // server reuses an old answer. Popular resolvers concentrate on a few
      // nodes (Zipf over node ids).
      const auto n = static_cast<double>(ctx_.cfg().nodes);
      const double u = ctx_.rng->next_double();
      const double h = std::exp(u * std::log(n + 1.0));  // Zipf(1)-ish via inverse
      conn->entry_node = std::min(ctx_.cfg().nodes - 1, static_cast<int>(h) - 1);
    }
  } else {
    // A retrying client re-resolves: perturbing the sequence steers DNS
    // rotation or switch selection toward a different node, and the
    // cached-translation skew does not reapply (that answer just failed).
    const std::uint64_t sel = conn->id ^ (0x9E3779B97F4A7C15ULL * conn->attempt);
    conn->entry_node = ctx_.policy->entry_node(sel, conn->request);
  }

  ctx_.retry->arm_attempt_timeout(conn);

  // Client request: router, then the entry node's NI-in, then parse.
  const auto att = conn->attempt;
  ctx_.router->forward(ctx_.cfg().request_msg_bytes, [this, conn, att]() {
    if (attempt_stale(conn, att)) return;
    if (!ctx_.node_alive(conn->entry_node)) {
      // Connection refused: the entry node is down.
      ctx_.retry->abort_connection(conn, obs::DecisionCause::kEntryNodeDown);
      return;
    }
    cluster::Node& entry = ctx_.node(conn->entry_node);
    entry.nic().rx().submit(ctx_.cfg().net.ni_request_time(), [this, conn, att]() {
      if (attempt_stale(conn, att)) return;
      if (!ctx_.node_alive(conn->entry_node)) {
        ctx_.retry->abort_connection(conn, obs::DecisionCause::kEntryNodeDown);
        return;
      }
      cluster::Node& n = ctx_.node(conn->entry_node);
      conn->state = ConnectionState::kParsing;
      n.cpu().submit(n.parse_time(), [this, conn, att]() {
        if (attempt_stale(conn, att)) return;
        distribute(conn);
      });
    });
  });
}

void Dispatcher::distribute(ConnRef conn) {
  if (conn->state == ConnectionState::kDone) return;
  if (!ctx_.node_alive(conn->entry_node)) {
    ctx_.retry->abort_connection(conn, obs::DecisionCause::kEntryNodeDown);
    return;
  }
  conn->state = ConnectionState::kDispatching;
  if (ctx_.policy->decides_asynchronously()) {
    const auto att = conn->attempt;
    ctx_.policy->select_service_node_async(conn->entry_node, conn->request,
                                           [this, conn, att](int target) {
                                             if (attempt_stale(conn, att)) return;
                                             dispatch_to(conn, target);
                                           });
    return;
  }
  dispatch_to(conn, ctx_.policy->select_service_node(conn->entry_node, conn->request));
}

void Dispatcher::dispatch_to(ConnRef conn, int target) {
  if (conn->state == ConnectionState::kDone) return;
  conn->t_decided = ctx_.now();
  if (target < 0) {
    // The policy could not produce a decision (e.g. its dispatcher died):
    // the client's request fails.
    ctx_.note_decision(obs::DecisionKind::kDispatch, obs::DecisionCause::kNoPolicyTarget,
                       conn->id, conn->entry_node, -1, conn->attempt);
    ctx_.retry->abort_connection(conn, obs::DecisionCause::kNoPolicyTarget);
    return;
  }
  L2S_REQUIRE(target < ctx_.cfg().nodes);
  conn->service_node = target;
  ctx_.note_decision(obs::DecisionKind::kDispatch,
                     target == conn->entry_node ? obs::DecisionCause::kLocalService
                                                : obs::DecisionCause::kForwardService,
                     conn->id, conn->entry_node, target, conn->attempt);

  if (target == conn->entry_node) {
    ctx_.service->begin_service(conn, /*opening=*/true);
    return;
  }

  conn->state = ConnectionState::kForwarding;
  const auto att = conn->attempt;
  cluster::Node& entry = ctx_.node(conn->entry_node);
  // Hand-off: policy-specific CPU cost at the entry node, the wire
  // transfer, and the VIA receive overhead at the target. A dropped
  // hand-off message leaves the attempt hanging until its timeout.
  entry.cpu().submit(ctx_.policy->forward_cpu_time(conn->entry_node), [this, conn, att]() {
    if (attempt_stale(conn, att)) return;
    ctx_.via->transmit(conn->entry_node, conn->service_node, ctx_.cfg().request_msg_bytes,
                       [this, conn, att]() {
                         if (attempt_stale(conn, att)) return;
                         cluster::Node& target_node = ctx_.node(conn->service_node);
                         target_node.cpu().submit(ctx_.cfg().net.cpu_msg_time(),
                                                  [this, conn, att]() {
                                                    if (attempt_stale(conn, att)) return;
                                                    ctx_.service->begin_service(
                                                        conn, /*opening=*/true);
                                                  });
                       });
  });
}

}  // namespace l2s::core::engine
