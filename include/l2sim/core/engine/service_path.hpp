// ServicePath: the service half of a request at its service node — the
// open-connection load accounting (epoch-guarded across crashes), the
// cache lookup / disk read, the reply path back through CPU, NIC and
// router, and request completion (including pulling the next request of a
// persistent connection or closing the connection).
#pragma once

#include "l2sim/core/engine/context.hpp"

namespace l2s::core::engine {

class ServicePath {
 public:
  explicit ServicePath(EngineContext& ctx) : ctx_(ctx) {}

  /// Serve the connection's current request at conn->service_node.
  /// `opening` counts the connection into the node's open-connection load
  /// (false when a persistent connection re-serves at its current node).
  void begin_service(ConnRef conn, bool opening);

  /// Reply path: reply CPU time, NI-out, router, then completion. Entered
  /// directly by PersistentPath when content arrived via a remote fetch.
  void reply_path(ConnRef conn);

  /// Release the service node's open-connection count if this connection
  /// still holds one against the node's current incarnation.
  void release_service_count(ConnRef conn);

  /// The connection's service node is alive and still the incarnation the
  /// connection was counted against (always true without crashes).
  [[nodiscard]] bool service_current(ConnRef conn) const;

 private:
  /// The current request completed: record it, then pull the next request
  /// of a persistent connection or close.
  void request_finished(ConnRef conn);
  /// The connection's last request completed: mark kDone, emit kClose, free
  /// the admission slot, then release the connection's pool slot.
  void close_connection(ConnRef conn);

  EngineContext& ctx_;
};

}  // namespace l2s::core::engine
