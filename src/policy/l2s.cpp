#include "l2sim/policy/l2s.hpp"

#include <algorithm>
#include <cmath>

#include "l2sim/common/error.hpp"

namespace {
constexpr int kDeadLoad = 1 << 28;
}  // namespace

namespace l2s::policy {

L2sPolicy::L2sPolicy(L2sParams params) : params_(params) {
  L2S_REQUIRE(params_.overload_threshold > params_.underload_threshold);
  L2S_REQUIRE(params_.underload_threshold > 0);
  L2S_REQUIRE(params_.broadcast_delta > 0);
  L2S_REQUIRE(std::isfinite(params_.set_shrink_seconds) && params_.set_shrink_seconds >= 0.0);
  shrink_ns_ = seconds_to_simtime(params_.set_shrink_seconds);
}

void L2sPolicy::attach(const ClusterContext& ctx) {
  ctx_ = ctx;
  states_.clear();
  sets_ = ServerSetMap(ctx.node_count());
  dns_.reset(ctx.node_count());
  all_nodes_.clear();
  for (int n = 0; n < ctx.node_count(); ++n) {
    NodeState& st = states_.emplace_back();
    st.view = cluster::LoadView(ctx.node_count());
    st.throttle = cluster::BroadcastThrottle(params_.broadcast_delta);
    all_nodes_.push_back(n);
  }
}

int L2sPolicy::entry_node(std::uint64_t seq, const trace::Request& /*r*/) {
  // Round-robin DNS: clients spread connections over the nodes blindly.
  // After a failure is detected, DNS drops the dead node from rotation.
  return dns_.pick(seq);
}

void L2sPolicy::on_node_failed(int node) {
  for (int n = 0; n < ctx_.node_count(); ++n) state(n).view.set(node, kDeadLoad);
  dns_.remove(node);
}

void L2sPolicy::on_node_recovered(int node) {
  // Survivors zero their view of the restarted node: it is alive, idle and
  // cache-cold, and will re-announce itself through load broadcasts.
  for (int n = 0; n < ctx_.node_count(); ++n) state(n).view.set(node, 0);
  // The restarted node's replicated state (server sets, peer loads) is
  // gone. The rejoin handshake hands it only the current membership — any
  // still-dead peers stay marked — and everything else is re-learned.
  NodeState& st = state(node);
  sets_.clear(node);
  st.view = cluster::LoadView(ctx_.node_count());
  st.throttle = cluster::BroadcastThrottle(params_.broadcast_delta);
  for (int m = 0; m < ctx_.node_count(); ++m) {
    if (m != node && !dns_.contains(m)) st.view.set(m, kDeadLoad);
  }
  // DNS puts the node back in rotation.
  dns_.add(node);
}

int L2sPolicy::pick_low(const cluster::LoadView& view, const std::vector<int>& candidates) {
  if (candidates.size() == 1) return candidates.front();
  int best = candidates[0];
  int second = candidates[1];
  if (view.get(second) < view.get(best)) std::swap(best, second);
  for (std::size_t i = 2; i < candidates.size(); ++i) {
    const int c = candidates[i];
    if (view.get(c) < view.get(best)) {
      second = best;
      best = c;
    } else if (view.get(c) < view.get(second)) {
      second = c;
    }
  }
  if (!params_.herd_damping) return best;
  // With damping on: nodes deciding independently on views that are stale
  // by up to a broadcast quantum can herd onto the same "least-loaded"
  // node; a uniform pick between the two lowest candidates damps the herd
  // (the power-of-two-choices effect). xorshift64 coin flip, deterministic
  // given the request sequence.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return (rng_state_ & 1) != 0 ? best : second;
}

int L2sPolicy::pick_low_all(const cluster::LoadView& view) {
  return pick_low(view, all_nodes_);
}

int L2sPolicy::select_service_node(int entry, const trace::Request& r) {
  // Brownout: shed forwarding — serve where the request landed, pay the
  // (possible) cache miss locally instead of hand-off + remote service.
  // The server sets are neither consulted nor grown, so no set-change
  // broadcasts go out either.
  if (brownout_level_ >= 1 && ctx_.node(entry).alive()) return entry;
  NodeState& me = state(entry);
  const SimTime now = ctx_.sched->now();
  const storage::FileId file = r.file;
  const int T = params_.overload_threshold;

  // A node always knows its own load exactly.
  me.view.set(entry, ctx_.node(entry).open_connections());

  int chosen;
  bool set_changed = false;
  const std::vector<int>& set = sets_.members(entry, file);
  if (set.empty()) {
    // First request for this file (as far as this node knows): service it
    // here unless overloaded, in which case the least-loaded node starts
    // the server set.
    chosen = me.view.get(entry) <= T ? entry : pick_low_all(me.view);
    sets_.add(entry, file, chosen, now);
    set_changed = true;
    ++counters_.set_create;
  } else {
    const int least_member = pick_low(me.view, set);
    const bool entry_caches = std::find(set.begin(), set.end(), entry) != set.end();
    // "Distribute the requests for the file among these nodes according to
    // load considerations": prefer serving locally (no hand-off) only while
    // the entry node is not substantially more loaded than the set's best
    // member; otherwise the request fills the load valley.
    if (entry_caches && me.view.get(entry) <= T &&
        me.view.get(entry) <= me.view.get(least_member) + params_.local_bias) {
      chosen = entry;
    } else if (me.view.get(least_member) <= T) {
      // The least-loaded caching node can take it: locality wins and the
      // hand-off (if any) is cheaper than a disk miss elsewhere.
      chosen = least_member;
    } else {
      // Every caching node is overloaded. Replicating onto a new node only
      // helps if somewhere there is genuinely spare capacity (load below
      // the underload threshold t) — when the whole cluster is saturated
      // (e.g. disk-bound small clusters) replication would just thrash the
      // caches. Extreme overload (>= 2T) forces the issue regardless.
      const int spare = me.view.get(entry) <= T ? entry : pick_low_all(me.view);
      const int spare_threshold = (params_.underload_threshold + T) / 2;
      const bool worth_growing = me.view.get(spare) < spare_threshold ||
                                 me.view.get(least_member) >= 2 * T;
      if (worth_growing && !sets_.contains(entry, file, spare)) {
        chosen = spare;
        sets_.add(entry, file, chosen, now);
        set_changed = true;
        ++counters_.set_grow;
      } else {
        chosen = least_member;
      }
    }

    // Periodic shrink: the server chosen is underloaded, the set is
    // replicated, and the set has been stable for a while.
    if (!set_changed && set.size() > 1 && me.view.get(chosen) < params_.underload_threshold &&
        now - sets_.last_modified(entry, file) > shrink_ns_) {
      const int victim = me.view.most_loaded_of(set);
      if (victim != chosen) {
        sets_.remove(entry, file, victim, now);
        set_changed = true;
        ++counters_.set_shrink;
      }
    }
  }

  if (set_changed) broadcast_set_change(entry, file);
  // Optimistically count the request we are about to place on a peer; our
  // own count is maintained exactly by the connection lifecycle.
  if (chosen != entry) me.view.adjust(chosen, +1);
  return chosen;
}

SimTime L2sPolicy::forward_cpu_time(int entry) const {
  return ctx_.node(entry).forward_time();
}

void L2sPolicy::on_service_start(int node, const trace::Request& /*r*/) {
  maybe_broadcast_load(node);
}

void L2sPolicy::on_complete(int node, const trace::Request& /*r*/) {
  maybe_broadcast_load(node);
}

void L2sPolicy::on_connection_migrated(int from, int to, const trace::Request& /*r*/) {
  maybe_broadcast_load(from);
  maybe_broadcast_load(to);
}

void L2sPolicy::maybe_broadcast_load(int node) {
  const int load = ctx_.node(node).open_connections();
  NodeState& st = state(node);
  st.view.set(node, load);
  if (!st.throttle.should_broadcast(load)) return;
  ++counters_.load_broadcasts;
  ctx_.via->broadcast(node, ctx_.control_msg_bytes, [this, node, load](int dst) {
    state(dst).view.set(node, load);
  });
}

void L2sPolicy::broadcast_set_change(int origin, storage::FileId file) {
  ++counters_.locality_broadcasts;
  // The new membership is immutable: every receiver adopts the origin's
  // own list on delivery, and a later change anywhere builds a new one.
  ctx_.via->broadcast(origin, ctx_.control_msg_bytes,
                      [this, file, members = sets_.share(origin, file)](int dst) {
                        sets_.adopt(dst, file, members, ctx_.sched->now());
                      });
}

int L2sPolicy::view_of(int owner, int target) const { return state(owner).view.get(target); }

const std::vector<int>& L2sPolicy::server_set_of(int owner, storage::FileId file) const {
  return sets_.members(owner, file);
}

}  // namespace l2s::policy
