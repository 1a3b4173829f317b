#include "l2sim/telemetry/sim_telemetry.hpp"

#include "l2sim/core/engine/metrics_collector.hpp"

namespace l2s::telemetry {

SimTelemetry::SimTelemetry(const core::engine::EngineContext& ctx,
                           const TelemetryConfig& config,
                           const core::engine::MetricsCollector& tally)
    : ctx_(ctx),
      config_(config),
      tally_(tally),
      // sample_every 0 means "no spans": keep the recorder constructible and
      // gate recording on config_.span_sample_every instead.
      spans_(config.span_capacity, config.span_sample_every == 0 ? 1 : config.span_sample_every) {
  config_.validate();
  if (config_.probe) {
    probe_ = std::make_unique<TimelineProbe>(registry_, ctx_.cfg().nodes);
    readings_.resize(static_cast<std::size_t>(ctx_.cfg().nodes));
  }
  publish_tally();
}

void SimTelemetry::publish_tally() {
  const core::engine::OutcomeTally& t = tally_.tally();
  const auto publish = [this](const std::string& name, const Labels& labels,
                              std::uint64_t value) {
    Counter& counter = registry_.counter(name, labels);
    counter.reset();
    counter.add(value);
  };
  publish("requests.completed", {}, t.completed);
  // The completion cuts are counted here, in on_event; they keep their
  // place in the export order.
  completed_hits_ = &registry_.counter("requests.completed", {{"cache", "hit"}});
  completed_forwarded_ = &registry_.counter("requests.completed", {{"path", "forwarded"}});
  publish("requests.failed", {{"reason", "deadline"}}, t.failed_deadline);
  publish("requests.failed", {{"reason", "retries"}}, t.failed_retries);
  publish("requests.failed", {{"reason", "rejected"}}, t.failed_rejected);
  publish("requests.failed", {{"reason", "shed"}}, t.failed_shed);
  publish("requests.retries_scheduled", {}, t.retry_attempts);
  publish("requests.hedges", {}, t.hedge_attempts);
  publish("overload.brownout_transitions", {}, t.brownout_transitions);
  publish("cluster.forwards", {}, t.forwarded);
  publish("cluster.migrations", {}, t.migrations);
  publish("cluster.remote_fetches", {}, t.remote_fetches);
  registry_.histogram("requests.response_ms") = t.response_ms;
  registry_.bucket_series("goodput.completed") = tally_.availability().completion_series();
  registry_.bucket_series("goodput.failed") = tally_.availability().failure_series();
}

void SimTelemetry::begin_measurement(SimTime measure_start) {
  if (probe_) probe_->begin(measure_start);
}

void SimTelemetry::reset() {
  registry_.reset();
  spans_.reset();
  fault_events_.clear();
  fault_epoch_ = 0;
}

Snapshot SimTelemetry::snapshot() {
  publish_tally();
  Snapshot snap = registry_.snapshot();
  snap.nodes = ctx_.cfg().nodes;
  if (probe_) snap.timelines.push_back(probe_->take());
  snap.spans = spans_.chronological();
  snap.fault_events = fault_events_;
  snap.span_sample_every = config_.span_sample_every;
  snap.spans_recorded = spans_.recorded();
  snap.spans_overwritten = spans_.overwritten();
  return snap;
}

void SimTelemetry::on_event(const obs::DecisionRecord& record,
                            const cluster::Connection* conn) {
  // Per-cause overload accounting (which shedder said no, which direction
  // the brownout moved, which budget spend was denied) registers its
  // counters lazily. That is fine — the stream is deterministic, so
  // registration order is too — and reset() keeps the registrations across
  // the warm-up boundary. Every other outcome is MetricsCollector's to
  // count.
  switch (record.kind) {
    case obs::DecisionKind::kComplete:
      if (conn->cache_hit) completed_hits_->add();
      if (conn->forwarded()) completed_forwarded_->add();
      record_span(*conn, conn->forwarded() ? SpanVerdict::kForwarded : SpanVerdict::kLocal,
                  record.time);
      break;
    case obs::DecisionKind::kFailure:
      record_span(*conn,
                  record.cause == obs::DecisionCause::kDeadlineExpired
                      ? SpanVerdict::kDeadline
                      : SpanVerdict::kRetriesExhausted,
                  record.time);
      break;
    // Admission rejects and sheds never materialize a connection, so those
    // requests leave counters but no span.
    case obs::DecisionKind::kShed:
      registry_.counter("overload.shed", {{"cause", std::string(to_string(record.cause))}})
          .add();
      break;
    case obs::DecisionKind::kBrownout:
      registry_
          .counter("overload.brownout", {{"level", std::to_string(record.detail)},
                                         {"edge", record.cause ==
                                                          obs::DecisionCause::kBrownoutRaise
                                                      ? "raise"
                                                      : "ease"}})
          .add();
      break;
    case obs::DecisionKind::kBudgetDeny:
      registry_
          .counter("overload.retry_budget_denied",
                   {{"op", record.cause == obs::DecisionCause::kBudgetDeniedHedge
                               ? "hedge"
                               : "retry"}})
          .add();
      break;
    case obs::DecisionKind::kDispatch:
    case obs::DecisionKind::kMigrate:
    case obs::DecisionKind::kRemoteFetch:
    case obs::DecisionKind::kReject:
    case obs::DecisionKind::kRetry:
    case obs::DecisionKind::kHedge:
    case obs::DecisionKind::kClose: break;
    case obs::DecisionKind::kNodeCrash: record_fault(FaultEvent::Kind::kCrash, record); break;
    case obs::DecisionKind::kNodeRepair: record_fault(FaultEvent::Kind::kRepair, record); break;
    case obs::DecisionKind::kNodeSuspected:
      record_fault(FaultEvent::Kind::kDetected, record);
      break;
    case obs::DecisionKind::kNodeReadmitted:
      record_fault(FaultEvent::Kind::kReadmitted, record);
      break;
  }
}

void SimTelemetry::record_span(const cluster::Connection& conn, SpanVerdict verdict,
                               SimTime end) {
  if (config_.span_sample_every == 0 || !spans_.sampled(conn.id)) return;
  Span span;
  span.request_id = conn.id;
  span.entry_node = conn.entry_node;
  span.service_node = conn.service_node;
  span.verdict = verdict;
  span.cache_hit = conn.cache_hit;
  span.attempt = conn.attempt;
  span.retries_used = conn.retries_used;
  span.fault_epoch = fault_epoch_;
  span.first_arrival = conn.first_arrival;
  span.arrival = conn.arrival;
  span.decided = conn.t_decided;
  span.service = conn.t_service;
  span.disk_done = conn.t_disk_done;
  span.completion = end;
  spans_.record(span);
}

void SimTelemetry::on_load_sample(SimTime now) {
  if (!probe_ || !probe_->recording()) return;
  for (std::size_t i = 0; i < readings_.size(); ++i) {
    cluster::Node& node = *(*ctx_.nodes)[i];
    TimelineProbe::Reading& r = readings_[i];
    r.open_connections = node.open_connections();
    r.cpu_queue = node.cpu().queue_length();
    r.disk_queue = node.disk().resource().queue_length();
    r.nic_tx_queue = node.nic().tx().queue_length();
    r.cache_used = node.file_cache().used();
    r.cpu_busy = node.cpu().busy_time();
  }
  probe_->record(now, ctx_.via->in_flight(), readings_);
}

void SimTelemetry::record_fault(FaultEvent::Kind kind, const obs::DecisionRecord& record) {
  ++fault_epoch_;
  FaultEvent ev;
  ev.kind = kind;
  ev.node = record.node;
  ev.at = record.time;
  fault_events_.push_back(ev);
}

}  // namespace l2s::telemetry
