// Dispatcher: the entry half of an attempt — entry-node selection (DNS /
// switch, with the cached-translation skew), the client request's path
// through router, entry NIC and parse CPU, the policy's service-node
// decision, and the hand-off to a remote service node over the VIA.
#pragma once

#include "l2sim/core/engine/context.hpp"

namespace l2s::core::engine {

class Dispatcher {
 public:
  explicit Dispatcher(EngineContext& ctx) : ctx_(ctx) {}

  /// Launch the connection's current attempt: entry selection, router,
  /// entry NIC, parse, then distribute. Called at injection and again on
  /// every retry; also arms the per-attempt timeout.
  void start_attempt(ConnRef conn);

 private:
  /// Ask the policy for a service node (synchronously or via its
  /// dispatcher node) once the entry node has parsed the request.
  void distribute(ConnRef conn);
  /// Route the parsed request to the chosen node: locally into the service
  /// path, or as a hand-off message across the cluster network.
  void dispatch_to(ConnRef conn, int target);

  EngineContext& ctx_;
};

}  // namespace l2s::core::engine
