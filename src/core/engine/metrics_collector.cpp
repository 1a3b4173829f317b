#include "l2sim/core/engine/metrics_collector.hpp"

#include <algorithm>
#include <cmath>

#include "l2sim/cache/cache_stats.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/core/engine/admission.hpp"

namespace l2s::core::engine {

void MetricsCollector::begin_measurement(SimTime measure_start) {
  availability_.begin(measure_start,
                      seconds_to_simtime(ctx_.cfg().goodput_interval_seconds),
                      ctx_.cfg().nodes);
  if (!ctx_.cfg().timeline_csv_path.empty()) {
    timeline_ = std::make_unique<std::ofstream>(ctx_.cfg().timeline_csv_path);
    if (!*timeline_)
      throw_error("cannot open timeline CSV: " + ctx_.cfg().timeline_csv_path);
    *timeline_ << "time_s";
    for (int n = 0; n < ctx_.cfg().nodes; ++n) *timeline_ << ",node" << n;
    *timeline_ << '\n';
  }
}

void MetricsCollector::start_sampling() {
  if (ctx_.cfg().load_sample_interval > 0 && ctx_.cfg().nodes > 1)
    ctx_.sched->after(ctx_.cfg().load_sample_interval, [this]() { sample_loads(); });
}

void MetricsCollector::sample_loads() {
  // The sampler rides along with the run and stops once the work drains
  // (a perpetual self-rescheduling event would keep the scheduler alive).
  if (ctx_.admission->drained()) return;
  double sum = 0.0;
  double sq = 0.0;
  double max = 0.0;
  for (const auto& n : *ctx_.nodes) {
    const auto load = static_cast<double>(n->open_connections());
    sum += load;
    sq += load * load;
    max = std::max(max, load);
  }
  const auto count = static_cast<double>(ctx_.nodes->size());
  const double mean = sum / count;
  if (mean > 0.0) {
    const double variance = std::max(0.0, sq / count - mean * mean);
    load_cov_.add(std::sqrt(variance) / mean);
    load_max_mean_.add(max / mean);
  }
  if (timeline_ && timeline_->is_open()) {
    *timeline_ << simtime_to_seconds(ctx_.now());
    for (const auto& n : *ctx_.nodes) *timeline_ << ',' << n->open_connections();
    *timeline_ << '\n';
  }
  // Let passive sinks (the telemetry probe) piggyback on this tick.
  for (LifecycleObserver* sink : ctx_.sinks) sink->on_load_sample(ctx_.now());
  ctx_.sched->after(ctx_.cfg().load_sample_interval, [this]() { sample_loads(); });
}

void MetricsCollector::on_event(const obs::DecisionRecord& record,
                                const cluster::Connection* conn) {
  const SimTime now = record.time;
  switch (record.kind) {
    case obs::DecisionKind::kDispatch:
      if (record.cause == obs::DecisionCause::kForwardService) ++forwarded_;
      break;
    case obs::DecisionKind::kMigrate:
      ++migrations_;
      ++forwarded_;
      break;
    case obs::DecisionKind::kRemoteFetch:
      ++remote_fetches_;
      ++forwarded_;
      break;
    case obs::DecisionKind::kComplete: {
      ++completed_;
      if (conn->retries_used > 0) ++completed_after_retry_;
      availability_.record_completion(now);
      // Client-perceived latency spans every attempt, from the first arrival.
      const double response_ms = simtime_to_seconds(now - conn->first_arrival) * 1e3;
      response_times_.add(response_ms);
      response_hist_.add(response_ms);
      stage_entry_.add(simtime_ms(conn->t_decided - conn->arrival));
      stage_forward_.add(simtime_ms(conn->t_service - conn->t_decided));
      stage_disk_.add(simtime_ms(conn->t_disk_done - conn->t_service));
      stage_reply_.add(simtime_ms(now - conn->t_disk_done));
      break;
    }
    case obs::DecisionKind::kClose: ++connections_; break;
    case obs::DecisionKind::kFailure:
      count_failure(record.cause == obs::DecisionCause::kDeadlineExpired ? failed_deadline_
                                                                         : failed_retries_,
                    now);
      break;
    case obs::DecisionKind::kReject: count_failure(failed_rejected_, now); break;
    case obs::DecisionKind::kShed: count_failure(failed_shed_, now); break;
    case obs::DecisionKind::kRetry:
      ++retry_attempts_;
      availability_.record_retry();
      break;
    case obs::DecisionKind::kHedge: ++hedge_attempts_; break;
    case obs::DecisionKind::kBrownout:
      ++brownout_transitions_;
      brownout_level_ = static_cast<int>(record.detail);
      break;
    case obs::DecisionKind::kBudgetDeny: break;
    case obs::DecisionKind::kNodeCrash: availability_.record_crash(record.node, now); break;
    case obs::DecisionKind::kNodeRepair: availability_.record_repair(record.node, now); break;
    case obs::DecisionKind::kNodeSuspected:
      availability_.record_detection(record.node, now);
      break;
    case obs::DecisionKind::kNodeReadmitted:
      availability_.record_readmission(record.node, now);
      break;
  }
}

void MetricsCollector::count_failure(std::uint64_t& bucket, SimTime now) {
  ++failed_;
  ++bucket;
  availability_.record_failure(now);
}

void MetricsCollector::reset() {
  completed_ = 0;
  connections_ = 0;
  forwarded_ = 0;
  migrations_ = 0;
  remote_fetches_ = 0;
  failed_ = 0;
  failed_deadline_ = 0;
  failed_retries_ = 0;
  failed_rejected_ = 0;
  failed_shed_ = 0;
  completed_after_retry_ = 0;
  retry_attempts_ = 0;
  hedge_attempts_ = 0;
  brownout_transitions_ = 0;
  brownout_level_ = 0;
  response_times_.reset();
  response_hist_ = stats::LogHistogram(0.01, 1.3, 64);
  stage_entry_.reset();
  stage_forward_.reset();
  stage_disk_.reset();
  stage_reply_.reset();
  load_cov_.reset();
  load_max_mean_.reset();
}

SimResult MetricsCollector::collect(SimTime measure_start,
                                    const fault::FailureDetector* detector) const {
  if (timeline_ && !timeline_->flush())
    throw_error("cannot write timeline CSV: " + ctx_.cfg().timeline_csv_path);
  SimResult r;
  r.policy = ctx_.policy->name();
  r.trace = ctx_.trace->name();
  r.nodes = ctx_.cfg().nodes;
  r.completed = completed_;
  const SimTime elapsed = ctx_.now() - measure_start;
  r.elapsed_seconds = simtime_to_seconds(elapsed);
  r.throughput_rps =
      r.elapsed_seconds > 0.0 ? static_cast<double>(completed_) / r.elapsed_seconds : 0.0;

  cache::CacheStats cache_totals;
  double idle_sum = 0.0;
  for (const auto& n : *ctx_.nodes) {
    cache_totals.merge(n->file_cache().stats());
    const double util = n->cpu().utilization(elapsed);
    r.node_cpu_utilization.push_back(util);
    idle_sum += 1.0 - util;
  }
  r.hit_rate = cache_totals.hit_rate();
  r.miss_rate = cache_totals.miss_rate();
  r.cpu_idle_fraction = idle_sum / static_cast<double>(ctx_.cfg().nodes);

  r.forwarded = forwarded_;
  r.forwarded_fraction =
      completed_ == 0 ? 0.0
                      : static_cast<double>(forwarded_) / static_cast<double>(completed_);
  r.connections = connections_;
  r.migrations = migrations_;
  r.remote_fetches = remote_fetches_;
  r.failed = failed_;
  r.failed_deadline = failed_deadline_;
  r.failed_retries_exhausted = failed_retries_;
  r.failed_rejected = failed_rejected_;
  r.failed_shed = failed_shed_;
  r.completed_after_retry = completed_after_retry_;
  r.retry_attempts = retry_attempts_;
  r.hedge_attempts = hedge_attempts_;
  r.brownout_transitions = brownout_transitions_;
  r.brownout_final_level = brownout_level_;
  const std::uint64_t requests = completed_ + failed_;
  r.retry_amplification =
      requests > 0
          ? static_cast<double>(requests + retry_attempts_) / static_cast<double>(requests)
          : 0.0;
  r.via_dropped = ctx_.via->messages_dropped();
  r.via_duplicated = ctx_.via->messages_duplicated();
  r.via_delayed = ctx_.via->messages_delayed();
  r.heartbeats = detector ? detector->heartbeats_sent() : 0;
  if (availability_.detection_latency_ms().count() > 0)
    r.detection_latency_ms = availability_.detection_latency_ms().mean();
  if (availability_.readmission_ms().count() > 0)
    r.time_to_recover_ms = availability_.readmission_ms().mean();
  r.goodput_interval_seconds = ctx_.cfg().goodput_interval_seconds;
  r.goodput_rps = availability_.goodput_rps(ctx_.now());

  if (response_times_.count() > 0) {
    r.mean_response_ms = response_times_.mean();
    r.max_response_ms = response_times_.max();
    r.p50_response_ms = response_hist_.quantile(0.50);
    r.p95_response_ms = response_hist_.quantile(0.95);
    r.p99_response_ms = response_hist_.quantile(0.99);
    r.stage_entry_ms = stage_entry_.mean();
    r.stage_forward_ms = stage_forward_.mean();
    r.stage_disk_ms = stage_disk_.mean();
    r.stage_reply_ms = stage_reply_.mean();
  }
  if (load_cov_.count() > 0) {
    r.load_cov = load_cov_.mean();
    r.load_max_over_mean = load_max_mean_.mean();
  }
  r.via_messages = ctx_.via->messages_sent();
  r.load_broadcasts = ctx_.policy->counters().get("load_broadcasts");
  r.locality_broadcasts = ctx_.policy->counters().get("locality_broadcasts") +
                          ctx_.policy->counters().get("set_create") +
                          ctx_.policy->counters().get("set_grow") +
                          ctx_.policy->counters().get("set_shrink");
  return r;
}

}  // namespace l2s::core::engine
