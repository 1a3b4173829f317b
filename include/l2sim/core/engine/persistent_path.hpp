// PersistentPath: HTTP/1.1-style persistent connections. Pulls the next
// request over an already-open connection (no connection establishment),
// asks the policy where it should be served, and resolves a non-local
// answer with one of the paper's two mechanisms: TCP connection hand-off
// (the connection migrates to the caching node) or back-end request
// forwarding (the content is fetched over the cluster network and the
// current node replies, proxy-style).
#pragma once

#include "l2sim/core/engine/context.hpp"

namespace l2s::core::engine {

class PersistentPath {
 public:
  explicit PersistentPath(EngineContext& ctx) : ctx_(ctx) {}

  /// The client pipelines its next request over the open connection: it
  /// passes the router and the current node's NI-in, is parsed, and then
  /// redistributed without the connection-establishment work.
  void continue_connection(ConnRef conn);

 private:
  /// Policy decision for a request on an open connection, then local
  /// service, migration or remote fetch per persistence.mode.
  void persistent_distribute(ConnRef conn);
  /// TCP connection hand-off: state moves to `target`, which owns the
  /// connection (and the client) from here on.
  void migrate_connection(ConnRef conn, int target);
  /// Back-end request forwarding: `owner` supplies the content over the
  /// VIA; the connection stays put and its node replies to the client.
  void remote_fetch(ConnRef conn, int owner);
  /// The owner's half of a remote fetch once the content is in its cache:
  /// copy it to the NIC, ship it to `current`, which replies to the client.
  void send_back(ConnRef conn, int current, int owner, std::uint32_t att);

  EngineContext& ctx_;
};

}  // namespace l2s::core::engine
