#include "l2sim/telemetry/sim_telemetry.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::telemetry {

SimTelemetry::SimTelemetry(const core::engine::EngineContext& ctx,
                           const TelemetryConfig& config)
    : ctx_(ctx),
      config_(config),
      // sample_every 0 means "no spans": keep the recorder constructible and
      // gate recording on config_.span_sample_every instead.
      spans_(config.span_capacity, config.span_sample_every == 0 ? 1 : config.span_sample_every) {
  config_.validate();
  if (config_.probe) {
    probe_ = std::make_unique<TimelineProbe>(registry_, ctx_.cfg().nodes);
  }
  completed_ = &registry_.counter("requests.completed");
  completed_hits_ = &registry_.counter("requests.completed", {{"cache", "hit"}});
  completed_forwarded_ = &registry_.counter("requests.completed", {{"path", "forwarded"}});
  failed_deadline_ = &registry_.counter("requests.failed", {{"reason", "deadline"}});
  failed_retries_ = &registry_.counter("requests.failed", {{"reason", "retries"}});
  failed_rejected_ = &registry_.counter("requests.failed", {{"reason", "rejected"}});
  failed_shed_ = &registry_.counter("requests.failed", {{"reason", "shed"}});
  retries_ = &registry_.counter("requests.retries_scheduled");
  hedges_ = &registry_.counter("requests.hedges");
  brownout_transitions_ = &registry_.counter("overload.brownout_transitions");
  forwards_ = &registry_.counter("cluster.forwards");
  migrations_ = &registry_.counter("cluster.migrations");
  remote_fetches_ = &registry_.counter("cluster.remote_fetches");
  response_ms_ = &registry_.histogram("requests.response_ms");
  goodput_completed_ = &registry_.bucket_series("goodput.completed");
  goodput_failed_ = &registry_.bucket_series("goodput.failed");
}

void SimTelemetry::begin_measurement(SimTime measure_start) {
  const SimTime interval = seconds_to_simtime(ctx_.cfg().goodput_interval_seconds);
  if (interval > 0) {
    goodput_completed_->begin(measure_start, interval);
    goodput_failed_->begin(measure_start, interval);
  }
  if (probe_) probe_->begin(measure_start);
}

void SimTelemetry::reset() {
  registry_.reset();
  spans_.reset();
  fault_events_.clear();
  fault_epoch_ = 0;
  if (probe_) probe_->reset();
}

Snapshot SimTelemetry::snapshot() const {
  Snapshot snap = registry_.snapshot();
  snap.nodes = ctx_.cfg().nodes;
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
  // the warm-up boundary.
  switch (record.kind) {
    case obs::DecisionKind::kDispatch:
      if (record.cause == obs::DecisionCause::kForwardService) forwards_->add();
      break;
    case obs::DecisionKind::kMigrate:
      migrations_->add();
      forwards_->add();
      break;
    case obs::DecisionKind::kRemoteFetch:
      remote_fetches_->add();
      forwards_->add();
      break;
    case obs::DecisionKind::kComplete:
      completed_->add();
      if (conn->cache_hit) completed_hits_->add();
      if (conn->forwarded()) completed_forwarded_->add();
      response_ms_->add(simtime_to_seconds(record.time - conn->first_arrival) * 1e3);
      goodput_completed_->bump(record.time);
      record_span(*conn, conn->forwarded() ? SpanVerdict::kForwarded : SpanVerdict::kLocal,
                  record.time);
      break;
    case obs::DecisionKind::kFailure: {
      const bool deadline = record.cause == obs::DecisionCause::kDeadlineExpired;
      (deadline ? failed_deadline_ : failed_retries_)->add();
      goodput_failed_->bump(record.time);
      record_span(*conn, deadline ? SpanVerdict::kDeadline : SpanVerdict::kRetriesExhausted,
                  record.time);
      break;
    }
    // Admission rejects and sheds never materialize a connection, so those
    // requests leave counters but no span.
    case obs::DecisionKind::kReject:
      failed_rejected_->add();
      goodput_failed_->bump(record.time);
      break;
    case obs::DecisionKind::kShed:
      registry_.counter("overload.shed", {{"cause", std::string(to_string(record.cause))}})
          .add();
      failed_shed_->add();
      goodput_failed_->bump(record.time);
      break;
    case obs::DecisionKind::kBrownout:
      registry_
          .counter("overload.brownout", {{"level", std::to_string(record.detail)},
                                         {"edge", record.cause ==
                                                          obs::DecisionCause::kBrownoutRaise
                                                      ? "raise"
                                                      : "ease"}})
          .add();
      brownout_transitions_->add();
      break;
    case obs::DecisionKind::kBudgetDeny:
      registry_
          .counter("overload.retry_budget_denied",
                   {{"op", record.cause == obs::DecisionCause::kBudgetDeniedHedge
                               ? "hedge"
                               : "retry"}})
          .add();
      break;
    case obs::DecisionKind::kRetry: retries_->add(); break;
    case obs::DecisionKind::kHedge: hedges_->add(); break;
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
  if (!probe_) return;
  ClusterSample sample;
  sample.now = now;
  sample.nodes.reserve(ctx_.nodes->size());
  for (const auto& node : *ctx_.nodes) {
    ClusterSample::Node ns;
    ns.open_connections = node->open_connections();
    ns.cpu_queue = node->cpu().queue_length();
    ns.disk_queue = node->disk().resource().queue_length();
    ns.nic_tx_queue = node->nic().tx().queue_length();
    ns.cache_used = node->file_cache().used();
    ns.cache_capacity = node->file_cache().capacity();
    ns.cpu_busy = node->cpu().busy_time();
    sample.nodes.push_back(ns);
  }
  sample.via_in_flight = ctx_.via->in_flight();
  probe_->record(sample);
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
