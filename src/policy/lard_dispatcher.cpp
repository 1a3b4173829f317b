#include "l2sim/policy/lard_dispatcher.hpp"

#include <cmath>

#include "l2sim/common/error.hpp"

namespace l2s::policy {
namespace {
constexpr int kDeadLoad = 1 << 28;
constexpr double kDecisionSeconds = 2e-5;  // table lookup + reply, 20 us
}  // namespace

LardDispatcherPolicy::LardDispatcherPolicy(LardParams params) : params_(params) {
  L2S_REQUIRE(params_.t_low > 0 && params_.t_high > params_.t_low);
  L2S_REQUIRE(std::isfinite(params_.set_shrink_seconds) && params_.set_shrink_seconds >= 0.0);
  shrink_ns_ = seconds_to_simtime(params_.set_shrink_seconds);
  decision_time_ = seconds_to_simtime(kDecisionSeconds);
}

void LardDispatcherPolicy::attach(const ClusterContext& ctx) {
  ctx_ = ctx;
  view_ = cluster::LoadView(ctx.node_count());
  completions_since_update_.assign(static_cast<std::size_t>(ctx.node_count()), 0);
  down_.assign(static_cast<std::size_t>(ctx.node_count()), false);
}

int LardDispatcherPolicy::entry_node(std::uint64_t seq, const trace::Request& /*r*/) {
  if (ctx_.node_count() == 1) return 0;
  // Simple load-balancing switch over the serving nodes (1..N-1): fewest
  // open connections, skipping detected-dead nodes.
  int best = -1;
  for (int n = 1; n < ctx_.node_count(); ++n) {
    if (down_[static_cast<std::size_t>(n)]) continue;
    if (best < 0 || ctx_.node(n).open_connections() < ctx_.node(best).open_connections())
      best = n;
  }
  (void)seq;
  return best < 0 ? 1 : best;
}

int LardDispatcherPolicy::least_loaded_server() const {
  if (ctx_.node_count() == 1) return 0;
  int best = 1;
  for (int n = 2; n < ctx_.node_count(); ++n)
    if (view_.get(n) < view_.get(best)) best = n;
  return best;
}

bool LardDispatcherPolicy::any_server_below(int threshold) const {
  for (int n = 1; n < ctx_.node_count(); ++n)
    if (view_.get(n) < threshold) return true;
  return false;
}

int LardDispatcherPolicy::decide(storage::FileId file) {
  if (ctx_.node_count() == 1) return 0;
  const SimTime now = ctx_.sched->now();

  int chosen;
  const std::vector<int>& set = sets_.members(0, file);
  if (set.empty()) {
    chosen = least_loaded_server();
    sets_.add(0, file, chosen, now);
    ++counters_.set_create;
  } else {
    chosen = view_.least_loaded_of(set);
    const bool overloaded =
        (view_.get(chosen) > params_.t_high && any_server_below(params_.t_low)) ||
        view_.get(chosen) >= 2 * params_.t_high;
    if (overloaded) {
      const int extra = least_loaded_server();
      if (!sets_.contains(0, file, extra)) {
        sets_.add(0, file, extra, now);
        ++counters_.set_grow;
      }
      chosen = extra;
    } else if (set.size() > 1 && now - sets_.last_modified(0, file) > shrink_ns_) {
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

int LardDispatcherPolicy::select_service_node(int entry, const trace::Request& r) {
  // Synchronous fallback (used by persistent connections): skip the wire
  // round trip but use the same tables.
  (void)entry;
  return decide(r.file);
}

void LardDispatcherPolicy::select_service_node_async(int entry, const trace::Request& r,
                                                     std::function<void(int)> done) {
  if (ctx_.node_count() == 1 || entry == dispatcher()) {
    done(decide(r.file));
    return;
  }
  if (!ctx_.node(dispatcher()).alive()) {
    done(-1);  // the single point of failure has failed
    return;
  }
  // Two-way query: entry -> dispatcher (VIA), dispatcher CPU computes the
  // assignment, dispatcher -> entry (VIA), then the entry proceeds.
  ++counters_.dispatcher_queries;
  ctx_.via->send(entry, dispatcher(), ctx_.control_msg_bytes,
                 [this, entry, file = r.file, done = std::move(done)]() mutable {
                   if (!ctx_.node(dispatcher()).alive()) {
                     done(-1);  // died while the query was in flight
                     return;
                   }
                   ctx_.node(dispatcher())
                       .cpu()
                       .submit(decision_time_, [this, entry, file,
                                                done = std::move(done)]() mutable {
                         if (!ctx_.node(dispatcher()).alive()) {
                           done(-1);
                           return;
                         }
                         const int target = decide(file);
                         ctx_.via->send(dispatcher(), entry, ctx_.control_msg_bytes,
                                        [target, done = std::move(done)]() mutable {
                                          done(target);
                                        });
                       });
                 });
}

SimTime LardDispatcherPolicy::forward_cpu_time(int entry) const {
  return ctx_.node(entry).handoff_initiate_time();
}

void LardDispatcherPolicy::on_complete(int node, const trace::Request& /*r*/) {
  if (ctx_.node_count() == 1) return;
  auto& pending = completions_since_update_[static_cast<std::size_t>(node)];
  if (++pending < params_.update_batch) return;
  const int batch = pending;
  pending = 0;
  ++counters_.load_updates;
  ctx_.via->send(node, dispatcher(), ctx_.control_msg_bytes,
                 [this, node, batch]() { view_.adjust(node, -batch); });
}

void LardDispatcherPolicy::on_node_failed(int node) {
  down_[static_cast<std::size_t>(node)] = true;
  if (node == dispatcher()) return;  // fatal for distribution decisions
  view_.set(node, kDeadLoad);
}

void LardDispatcherPolicy::on_node_recovered(int node) {
  // Rejoin as a cold serving node with no load in the dispatcher's view.
  down_[static_cast<std::size_t>(node)] = false;
  view_.set(node, 0);
  completions_since_update_[static_cast<std::size_t>(node)] = 0;
}

}  // namespace l2s::policy
