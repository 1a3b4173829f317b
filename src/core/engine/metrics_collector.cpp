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
  OutcomeTally& t = tally_;
  switch (record.kind) {
    case obs::DecisionKind::kDispatch:
      if (record.cause == obs::DecisionCause::kForwardService) ++t.forwarded;
      break;
    case obs::DecisionKind::kMigrate:
      ++t.migrations;
      ++t.forwarded;
      break;
    case obs::DecisionKind::kRemoteFetch:
      ++t.remote_fetches;
      ++t.forwarded;
      break;
    case obs::DecisionKind::kComplete: {
      ++t.completed;
      if (conn->retries_used > 0) ++t.completed_after_retry;
      availability_.record_completion(now);
      // Client-perceived latency spans every attempt, from the first arrival.
      const double response_ms = simtime_to_seconds(now - conn->first_arrival) * 1e3;
      response_times_.add(response_ms);
      t.response_ms.add(response_ms);
      stage_entry_.add(simtime_ms(conn->t_decided - conn->arrival));
      stage_forward_.add(simtime_ms(conn->t_service - conn->t_decided));
      stage_disk_.add(simtime_ms(conn->t_disk_done - conn->t_service));
      stage_reply_.add(simtime_ms(now - conn->t_disk_done));
      break;
    }
    case obs::DecisionKind::kClose: ++t.connections; break;
    case obs::DecisionKind::kFailure:
      count_failure(record.cause == obs::DecisionCause::kDeadlineExpired ? t.failed_deadline
                                                                         : t.failed_retries,
                    now);
      break;
    case obs::DecisionKind::kReject: count_failure(t.failed_rejected, now); break;
    case obs::DecisionKind::kShed: count_failure(t.failed_shed, now); break;
    case obs::DecisionKind::kRetry:
      ++t.retry_attempts;
      availability_.record_retry();
      break;
    case obs::DecisionKind::kHedge: ++t.hedge_attempts; break;
    case obs::DecisionKind::kBrownout:
      ++t.brownout_transitions;
      t.brownout_level = static_cast<int>(record.detail);
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
  ++tally_.failed;
  ++bucket;
  availability_.record_failure(now);
}

void MetricsCollector::reset() {
  tally_ = {};
  response_times_.reset();
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
  const OutcomeTally& t = tally_;
  r.completed = t.completed;
  const SimTime elapsed = ctx_.now() - measure_start;
  r.elapsed_seconds = simtime_to_seconds(elapsed);
  r.throughput_rps =
      r.elapsed_seconds > 0.0 ? static_cast<double>(t.completed) / r.elapsed_seconds : 0.0;

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

  r.forwarded = t.forwarded;
  r.forwarded_fraction =
      t.completed == 0 ? 0.0
                       : static_cast<double>(t.forwarded) / static_cast<double>(t.completed);
  r.connections = t.connections;
  r.migrations = t.migrations;
  r.remote_fetches = t.remote_fetches;
  r.failed = t.failed;
  r.failed_deadline = t.failed_deadline;
  r.failed_retries_exhausted = t.failed_retries;
  r.failed_rejected = t.failed_rejected;
  r.failed_shed = t.failed_shed;
  r.completed_after_retry = t.completed_after_retry;
  r.retry_attempts = t.retry_attempts;
  r.hedge_attempts = t.hedge_attempts;
  r.brownout_transitions = t.brownout_transitions;
  r.brownout_final_level = t.brownout_level;
  const std::uint64_t requests = t.completed + t.failed;
  r.retry_amplification =
      requests > 0
          ? static_cast<double>(requests + t.retry_attempts) / static_cast<double>(requests)
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
    r.p50_response_ms = t.response_ms.quantile(0.50);
    r.p95_response_ms = t.response_ms.quantile(0.95);
    r.p99_response_ms = t.response_ms.quantile(0.99);
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
  const policy::PolicyCounters& pc = ctx_.policy->counters();
  r.load_broadcasts = pc.load_broadcasts;
  r.locality_broadcasts = pc.locality_broadcasts + pc.set_create + pc.set_grow + pc.set_shrink;
  return r;
}

}  // namespace l2s::core::engine
