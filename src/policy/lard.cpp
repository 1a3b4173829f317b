#include "l2sim/policy/lard.hpp"

#include <cmath>

#include "l2sim/common/error.hpp"

namespace {
constexpr int kDeadLoad = 1 << 28;
}  // namespace

namespace l2s::policy {

LardPolicy::LardPolicy(LardParams params) : params_(params) {
  L2S_REQUIRE(params_.t_low > 0 && params_.t_high > params_.t_low);
  L2S_REQUIRE(params_.update_batch > 0);
  L2S_REQUIRE(std::isfinite(params_.set_shrink_seconds) && params_.set_shrink_seconds >= 0.0);
  shrink_ns_ = seconds_to_simtime(params_.set_shrink_seconds);
}

void LardPolicy::attach(const ClusterContext& ctx) {
  ctx_ = ctx;
  view_ = cluster::LoadView(ctx.node_count());
  completions_since_update_.assign(static_cast<std::size_t>(ctx.node_count()), 0);
  front_end_ = front_end();
}

int LardPolicy::entry_node(std::uint64_t /*seq*/, const trace::Request& /*r*/) {
  return front_end_;
}

int LardPolicy::least_loaded_backend() const {
  // A 1-node cluster degenerates to the front-end serving everything.
  if (ctx_.node_count() == 1) return 0;
  int best = -1;
  for (int n = 0; n < ctx_.node_count(); ++n) {
    if (n == front_end_) continue;
    if (best < 0 || view_.get(n) < view_.get(best)) best = n;
  }
  return best;
}

void LardPolicy::on_node_failed(int node) {
  if (node == front_end_) {
    if (!params_.front_end_failover || ctx_.node_count() == 1) return;  // fatal
    // Warm-spare promotion: the least-loaded live back-end takes over
    // front-end duty. It drains its existing connections but takes no new
    // service assignments (its view entry is pinned dead, exactly like the
    // old front-end's).
    const int promoted = least_loaded_backend();
    if (promoted < 0 || view_.get(promoted) >= kDeadLoad) return;  // nobody left
    view_.set(node, kDeadLoad);
    front_end_ = promoted;
    view_.set(promoted, kDeadLoad);
    ++counters_.front_end_failover;
    return;
  }
  // An unreachable back-end looks infinitely loaded, so neither the
  // least-loaded choice nor existing server sets ever pick it again.
  view_.set(node, kDeadLoad);
  completions_since_update_[static_cast<std::size_t>(node)] = 0;
}

void LardPolicy::on_node_recovered(int node) {
  if (node == front_end_) return;
  // Rejoin as a cold back-end with zero open connections — even an
  // ex-front-end: the promoted replacement keeps the role.
  view_.set(node, 0);
  completions_since_update_[static_cast<std::size_t>(node)] = 0;
}

bool LardPolicy::any_backend_below(int threshold) const {
  for (int n = 0; n < ctx_.node_count(); ++n) {
    if (n == front_end_) continue;
    if (view_.get(n) < threshold) return true;
  }
  return false;
}

int LardPolicy::select_service_node(int entry, const trace::Request& r) {
  L2S_REQUIRE(entry == front_end_);
  return decide(r);
}

int LardPolicy::select_next_in_connection(int current, const trace::Request& r) {
  // Brownout: shed migration — the persistent connection stays put (disk
  // can serve anything; only locality suffers), sparing the hand-off CPU
  // and VIA traffic while the cluster is overloaded.
  if (brownout_level_ >= 1 && ctx_.node(current).alive()) return current;
  const int chosen = decide(r);
  // decide() counts a new assignment at the chosen node; if the connection
  // stays where it is, no load moved.
  if (chosen == current) view_.adjust(current, -1);
  return chosen;
}

void LardPolicy::on_connection_migrated(int from, int /*to*/, const trace::Request& /*r*/) {
  // The new node's view entry was bumped by decide(); the old node reports
  // the connection's departure like a termination (batched updates).
  record_termination(from);
}

int LardPolicy::decide(const trace::Request& r) {
  if (ctx_.node_count() == 1) return 0;
  const SimTime now = ctx_.sched->now();
  const storage::FileId file = r.file;

  int chosen;
  const std::vector<int>& set = sets_.members(0, file);
  if (set.empty()) {
    chosen = least_loaded_backend();
    sets_.add(0, file, chosen, now);
    ++counters_.set_create;
  } else {
    chosen = view_.least_loaded_of(set);
    // Brownout freezes replication churn: no set growth (which would pull
    // cold copies onto already-busy nodes) and no shrink (which would
    // evict warm copies mid-overload) — just the least-loaded member.
    const bool overloaded =
        brownout_level_ < 1 &&
        ((view_.get(chosen) > params_.t_high && any_backend_below(params_.t_low)) ||
         view_.get(chosen) >= 2 * params_.t_high);
    if (overloaded) {
      const int extra = least_loaded_backend();
      if (!sets_.contains(0, file, extra)) {
        sets_.add(0, file, extra, now);
        ++counters_.set_grow;
      }
      chosen = extra;
    } else if (brownout_level_ < 1 && set.size() > 1 &&
               now - sets_.last_modified(0, file) > shrink_ns_) {
      // Replication decayed: drop the most loaded member.
      const int victim = view_.most_loaded_of(set);
      if (victim != chosen) {
        sets_.remove(0, file, victim, now);
        ++counters_.set_shrink;
      }
    }
  }

  view_.adjust(chosen, +1);
  return chosen;
}

SimTime LardPolicy::forward_cpu_time(int entry) const {
  return ctx_.node(entry).handoff_initiate_time();
}

void LardPolicy::on_complete(int node, const trace::Request& /*r*/) {
  record_termination(node);
}

void LardPolicy::record_termination(int node) {
  if (ctx_.node_count() == 1) return;
  // The front-end's own entry is pinned (it is not a service candidate), so
  // a promoted front-end draining its old back-end connections sends no
  // update to itself.
  if (node == front_end_) return;
  auto& pending = completions_since_update_[static_cast<std::size_t>(node)];
  if (++pending < params_.update_batch) return;
  const int batch = pending;
  pending = 0;
  ++counters_.load_updates;
  ctx_.via->send(node, front_end_, ctx_.control_msg_bytes,
                 [this, node, batch]() { view_.adjust(node, -batch); });
}

int LardPolicy::front_end_view(int node) const { return view_.get(node); }

}  // namespace l2s::policy
