// OverloadController: the l2s::overload resilience layer, threaded through
// the engine components. Three defenses, each independently configurable
// via SimConfig::overload and each OFF by default:
//
//   * adaptive admission — pluggable shedders (static in-flight cap,
//     CoDel-style queue-delay target, AIMD goodput-tracking window) that
//     turn open-loop arrivals away *before* they occupy cluster resources;
//   * a retry token bucket — every admitted request earns
//     retry_budget_ratio tokens, every retry or hedge spends one, so
//     retries cannot amplify an overload into a storm;
//   * brownout — a circuit breaker on the policy side: level 1 sheds
//     forwarding (L2S serves at the entry node, LARD freezes replication
//     and migration), level 2 additionally sheds every other arrival.
//
// Determinism: the controller draws no random numbers and, when every
// defense is off, schedules no events and touches no engine state — the
// golden-digest suite pins that a default OverloadConfig is bit-identical
// to the pre-overload engine. The delay signal (windowed mean client
// sojourn) is updated on completion and terminal failure events, never by
// its own timers; only the AIMD probe schedules a periodic event, and only
// when AIMD is selected.
#pragma once

#include <cstdint>

#include "l2sim/core/engine/context.hpp"

namespace l2s::core::engine {

class OverloadController {
 public:
  explicit OverloadController(EngineContext& ctx) : ctx_(ctx) {}

  /// Reset all defense state at the start of a pass (warm-up and measured
  /// passes each start healthy: full token bucket, brownout level 0, AIMD
  /// window at the full admission window).
  void begin_pass();

  /// Schedule the periodic machinery for the pass — only the AIMD probe,
  /// and only when the AIMD shedder is selected, so defenses-off runs
  /// schedule nothing. Call after the admission window is open.
  void start();

  /// Admission decision for one open-loop arrival. False = shed: the
  /// arrival is turned away at the front door and counted under
  /// SimResult::failed_shed. Always true when no admission defense is on.
  [[nodiscard]] bool admit_arrival();

  /// An admitted request entered the cluster: accrue retry budget.
  void earn_token();

  /// A retry or hedge wants to launch: spend one token if the bucket has
  /// one, else suppress. Always true when the budget is unlimited.
  [[nodiscard]] bool try_spend_retry_token();

  /// A request completed: feed the client sojourn into the delay window
  /// (the CoDel/brownout signal). Called by ServicePath on every completed
  /// request; cheap no-op unless a delay-driven defense is on.
  void note_completion(const cluster::Connection& conn, SimTime now);

  /// A request failed terminally (deadline or retries exhausted): it feeds
  /// the delay window (a request that died of old age is the strongest
  /// queue signal there is — completion-only estimators go blind in a
  /// collapse), and the AIMD shedder treats it as congestion and shrinks
  /// its window (at most once per period, the classic TCP rule).
  void note_failure(const cluster::Connection& conn, SimTime now);

  [[nodiscard]] int brownout_level() const { return level_; }
  /// Effective AIMD in-flight cap (meaningful only under kAimd).
  [[nodiscard]] std::uint64_t window_cap() const;
  /// Which defense said no in the most recent admit_arrival() == false —
  /// the admission path reads this to attribute the shed in the decision
  /// log (the shed itself is recorded where the failure is counted).
  [[nodiscard]] obs::DecisionCause last_shed_cause() const { return last_shed_cause_; }

 private:
  void aimd_tick();
  /// Roll the delay window if due and latch the mean-sojourn signal; then
  /// drive shedder latch + brownout level transitions off the latched value.
  void update_delay_signal(double sojourn_s, SimTime now);
  /// Close the current window: latch its mean sojourn (zero if the window
  /// saw no samples at all — an empty window means the system drained) and
  /// drive the shedder latch + brownout transitions. admit_arrival() also
  /// closes stale *empty* windows so a 100%-shed latch re-probes instead of
  /// freezing itself on.
  void close_window(SimTime now);
  void set_brownout_level(int level);

  [[nodiscard]] const OverloadConfig& ov() const { return ctx_.cfg().overload; }

  EngineContext& ctx_;

  // Retry token bucket.
  double tokens_ = 0.0;

  // Windowed-mean delay estimator (queue-delay signal, shared with
  // brownout). CoDel uses the windowed min, which presumes a single shared
  // queue; hits bypassing the disks make this system bimodal, so the mean
  // (failures included) is the signal that actually sees a miss storm.
  SimTime window_start_ = 0;
  double window_delay_sum_ = 0.0;
  std::uint64_t window_samples_ = 0;
  double latched_delay_ = 0.0;  ///< mean sojourn of the last closed window
  bool above_target_ = false;   ///< kQueueDelay bang-bang latch

  // Brownout.
  int level_ = 0;
  std::uint64_t arrivals_seen_ = 0;  ///< level-2 sheds every other arrival
  obs::DecisionCause last_shed_cause_ = obs::DecisionCause::kNone;

  // AIMD window.
  double aimd_cap_ = 0.0;
  bool aimd_failure_seen_ = false;  ///< failure since the last probe tick
  SimTime aimd_last_decrease_ = 0;
};

}  // namespace l2s::core::engine
