// A client connection being serviced by the cluster: one HTTP/1.0-style
// request-reply pair (the paper's algorithms target non-persistent
// connections, one request per connection).
#pragma once

#include <cstdint>

#include "l2sim/common/units.hpp"
#include "l2sim/trace/trace.hpp"

namespace l2s::cluster {

/// Explicit request-lifecycle state machine, shared by every engine
/// component. A request advances
///   kArriving -> kParsing -> kDispatching -> [kForwarding ->] kServing
///   -> kReplying -> (next request | kDone)
/// with two detours: kRetryBackoff while a failed attempt waits out its
/// backoff (the next attempt restarts at kArriving), and a jump to kDone
/// from anywhere on completion, final failure or deadline expiry. kDone is
/// absorbing: stale callbacks check it (see engine::attempt_stale) and
/// bail, which is what makes retries and crash aborts idempotent.
enum class ConnectionState : std::uint8_t {
  kArriving,      ///< in the router / entry NIC
  kParsing,       ///< entry node CPU
  kDispatching,   ///< policy deciding the service node
  kForwarding,    ///< hand-off in flight to the service node
  kServing,       ///< cache/disk lookup at the service node
  kReplying,      ///< reply CPU/NIC/router back to the client
  kRetryBackoff,  ///< waiting to launch the next attempt
  kDone,          ///< completed or failed; no callback may act on it again
};

[[nodiscard]] constexpr const char* connection_state_name(ConnectionState s) {
  switch (s) {
    case ConnectionState::kArriving: return "arriving";
    case ConnectionState::kParsing: return "parsing";
    case ConnectionState::kDispatching: return "dispatching";
    case ConnectionState::kForwarding: return "forwarding";
    case ConnectionState::kServing: return "serving";
    case ConnectionState::kReplying: return "replying";
    case ConnectionState::kRetryBackoff: return "retry-backoff";
    case ConnectionState::kDone: return "done";
  }
  return "?";
}

struct Connection {
  std::uint64_t id = 0;
  trace::Request request{};
  int entry_node = -1;    ///< node that accepted the client connection
  int service_node = -1;  ///< node that services the request (== entry if local)
  ConnectionState state = ConnectionState::kArriving;
  SimTime arrival = 0;    ///< arrival of the *current* request
  SimTime completion = 0;
  bool cache_hit = false;

  /// Persistent (HTTP/1.1-style) connections: how many more requests this
  /// connection may still carry after the current one, and how many it has
  /// served. HTTP/1.0 connections have remaining_requests == 0 throughout.
  std::uint32_t remaining_requests = 0;
  std::uint32_t requests_served = 0;

  /// True while the connection is counted in its service node's
  /// open-connection load (between connection_opened and _closed); lets
  /// failure aborts release the count exactly once.
  bool counted_in_service = false;

  /// Node epoch observed when counted_in_service was set: a count taken
  /// before a crash must not be released against the recovered node's
  /// zeroed counter.
  int service_epoch = 0;

  /// Client-side robustness: current attempt number (0 = first try) and
  /// retries consumed. Lifecycle callbacks capture the attempt they belong
  /// to and bail if a retry has superseded them. `first_arrival` anchors
  /// the per-request deadline across retries.
  std::uint32_t attempt = 0;
  std::uint32_t retries_used = 0;
  /// Hedged (speculative backup) attempts launched for the current request
  /// (overload.hedge_delay_seconds); reset per request like retries_used.
  std::uint32_t hedges_used = 0;
  SimTime first_arrival = 0;
  SimTime deadline_at = 0;  ///< 0 = no deadline armed

  /// Stage timestamps of the current request, for latency breakdowns:
  /// arrival -> decided (entry processing incl. queueing) -> service
  /// start (hand-off, zero when local) -> disk done (zero on hits) ->
  /// completion (reply path).
  SimTime t_decided = 0;
  SimTime t_service = 0;
  SimTime t_disk_done = 0;

  [[nodiscard]] bool forwarded() const {
    return service_node >= 0 && service_node != entry_node;
  }
  [[nodiscard]] SimTime response_time() const { return completion - arrival; }
};

}  // namespace l2s::cluster
