#include "l2sim/telemetry/exporters.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>

#include "l2sim/common/error.hpp"
#include "l2sim/common/table.hpp"

namespace l2s::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Small formatting helpers.

[[nodiscard]] std::string labels_to_string(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ';';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

/// Chrome trace timestamps are microseconds; SimTime is nanoseconds.
[[nodiscard]] double to_us(SimTime t) { return static_cast<double>(t) / 1000.0; }

/// The node a span's back half ran on (entry node when it died pre-dispatch).
[[nodiscard]] int back_node(const Span& s) {
  return s.service_node >= 0 ? s.service_node : s.entry_node;
}

/// The timeline's per-node columns under their export names, in export
/// order.
struct TimelineColumn {
  const char* name;
  double (*value)(const Timeline::Node&);
};

constexpr TimelineColumn kTimelineColumns[] = {
    {"node.open_connections",
     [](const Timeline::Node& n) { return static_cast<double>(n.open_connections); }},
    {"node.cpu_queue", [](const Timeline::Node& n) { return static_cast<double>(n.cpu_queue); }},
    {"node.disk_queue",
     [](const Timeline::Node& n) { return static_cast<double>(n.disk_queue); }},
    {"node.nic_tx_queue",
     [](const Timeline::Node& n) { return static_cast<double>(n.nic_tx_queue); }},
    {"node.cache_used_bytes",
     [](const Timeline::Node& n) { return static_cast<double>(n.cache_used); }},
    {"node.cpu_utilization", [](const Timeline::Node& n) { return n.cpu_utilization; }},
};

/// Visit every timeline sample in export order: node by node, each column
/// in turn with its ticks from every run in merge order, then
/// via.in_flight. `visit(name, node, t, value)` sees node -1 for
/// via.in_flight.
template <typename Visit>
void for_each_timeline_sample(const std::vector<Timeline>& timelines, Visit&& visit) {
  int nodes = 0;
  for (const Timeline& tl : timelines) nodes = std::max(nodes, tl.nodes());
  for (int n = 0; n < nodes; ++n) {
    for (const TimelineColumn& column : kTimelineColumns) {
      for (const Timeline& tl : timelines) {
        if (n >= tl.nodes()) continue;
        for (std::size_t k = 0; k < tl.ticks(); ++k) {
          visit(column.name, n, tl.time(k), column.value(tl.node(k, n)));
        }
      }
    }
  }
  for (const Timeline& tl : timelines) {
    for (std::size_t k = 0; k < tl.ticks(); ++k) {
      visit("via.in_flight", -1, tl.time(k), static_cast<double>(tl.via_in_flight(k)));
    }
  }
}

class JsonEventWriter {
 public:
  explicit JsonEventWriter(std::ostream& out) : out_(out) {}

  /// Start the next event object, handling commas between events.
  std::ostream& next() {
    if (!first_) out_ << ",\n";
    first_ = false;
    return out_;
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void write_span_slice(JsonEventWriter& w, const char* name, int pid, int tid,
                      SimTime start, SimTime end, const Span& s) {
  if (pid < 0 || end < start) return;
  w.next() << "{\"ph\":\"X\",\"name\":\"" << name << "\",\"pid\":" << pid
           << ",\"tid\":" << tid << ",\"ts\":" << to_us(start)
           << ",\"dur\":" << to_us(end - start) << ",\"args\":{\"request\":" << s.request_id
           << ",\"verdict\":\"" << span_verdict_name(s.verdict)
           << "\",\"attempt\":" << s.attempt << ",\"fault_epoch\":" << s.fault_epoch << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Snapshot& snapshot,
                        const std::vector<std::string>& extra_events) {
  out << std::setprecision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  JsonEventWriter w(out);

  // One trace process per node, one thread per resource stage. Track ids
  // order the resources the way a request traverses them.
  static constexpr const char* kTracks[] = {"entry (cpu)", "hand-off", "storage",
                                            "reply (nic)"};
  for (int n = 0; n < snapshot.nodes; ++n) {
    w.next() << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << n
             << ",\"args\":{\"name\":\"node" << n << "\"}}";
    for (int t = 0; t < 4; ++t) {
      w.next() << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << n << ",\"tid\":" << t
               << ",\"args\":{\"name\":\"" << kTracks[t] << "\"}}";
    }
  }

  for (const Span& s : snapshot.spans) {
    // Slices degrade gracefully for spans that died mid-lifecycle: a stage
    // whose timestamps were never set is skipped.
    if (s.decided >= s.arrival && s.decided > 0) {
      write_span_slice(w, "entry", s.entry_node, 0, s.arrival, s.decided, s);
    }
    if (s.service > s.decided && s.decided > 0 &&
        (s.verdict == SpanVerdict::kForwarded || s.service_node != s.entry_node)) {
      write_span_slice(w, "hand-off", s.entry_node, 1, s.decided, s.service, s);
    }
    if (s.disk_done >= s.service && s.service > 0) {
      write_span_slice(w, s.cache_hit ? "cache" : "disk", back_node(s), 2, s.service,
                       s.disk_done, s);
    }
    if (!s.failed() && s.completion >= s.disk_done && s.disk_done > 0) {
      write_span_slice(w, "reply", back_node(s), 3, s.disk_done, s.completion, s);
    }
    if (s.failed() && s.entry_node >= 0) {
      w.next() << "{\"ph\":\"i\",\"s\":\"p\",\"name\":\"" << span_verdict_name(s.verdict)
               << "\",\"pid\":" << s.entry_node << ",\"tid\":0,\"ts\":" << to_us(s.completion)
               << ",\"args\":{\"request\":" << s.request_id << "}}";
    }
  }

  for (const FaultEvent& ev : snapshot.fault_events) {
    w.next() << "{\"ph\":\"i\",\"s\":\"g\",\"name\":\"" << fault_event_name(ev.kind)
             << " node" << ev.node << "\",\"pid\":" << (ev.node >= 0 ? ev.node : 0)
             << ",\"tid\":0,\"ts\":" << to_us(ev.at) << "}";
  }

  // Timeline columns become counter tracks on their node's process.
  for_each_timeline_sample(snapshot.timelines, [&](const char* name, int node, SimTime t,
                                                   double v) {
    w.next() << "{\"ph\":\"C\",\"name\":\"" << name << "\",\"pid\":" << (node >= 0 ? node : 0)
             << ",\"ts\":" << to_us(t) << ",\"args\":{\"value\":" << v << "}}";
  });

  for (const std::string& ev : extra_events) w.next() << ev;

  out << "\n]}\n";
}

void write_chrome_trace(std::ostream& out, const Snapshot& snapshot) {
  write_chrome_trace(out, snapshot, {});
}

void write_metrics_csv(std::ostream& out, const Snapshot& snapshot) {
  out << "name,labels,kind,count,value,min,max,p50,p95,p99\n";
  out << std::setprecision(15);
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.kind == MetricKind::kBucketSeries) continue;
    out << m.name << ',' << labels_to_string(m.labels) << ',' << metric_kind_name(m.kind)
        << ',' << m.count << ',';
    switch (m.kind) {
      case MetricKind::kCounter:
        out << m.count << ",,,,,";
        break;
      case MetricKind::kGauge:
        out << m.value << ',' << m.min << ',' << m.max << ",,,";
        break;
      case MetricKind::kHistogram:
        out << ",,," << m.histogram.quantile(0.50) << ',' << m.histogram.quantile(0.95)
            << ',' << m.histogram.quantile(0.99);
        break;
      default:
        break;
    }
    out << '\n';
  }
}

void write_timeseries_csv(std::ostream& out, const Snapshot& snapshot) {
  out << "name,labels,time_s,value\n";
  out << std::setprecision(15);
  for_each_timeline_sample(snapshot.timelines, [&](const char* name, int node, SimTime t,
                                                   double v) {
    out << name << ',';
    if (node >= 0) out << "node=" << node;
    out << ',' << simtime_to_seconds(t) << ',' << v << '\n';
  });
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.kind != MetricKind::kBucketSeries) continue;
    for (std::size_t i = 0; i < m.series_buckets.size(); ++i) {
      const SimTime t = m.series_start + static_cast<SimTime>(i) * m.series_interval;
      out << m.name << ',' << labels_to_string(m.labels) << ',' << simtime_to_seconds(t)
          << ',' << m.series_buckets[i] << '\n';
    }
  }
}

void write_spans_csv(std::ostream& out, const Snapshot& snapshot) {
  out << "request_id,entry_node,service_node,verdict,cache_hit,attempt,retries_used,"
         "fault_epoch,arrival_s,entry_ms,forward_ms,disk_ms,reply_ms,total_ms\n";
  out << std::setprecision(15);
  for (const Span& s : snapshot.spans) {
    out << s.request_id << ',' << s.entry_node << ',' << s.service_node << ','
        << span_verdict_name(s.verdict) << ',' << (s.cache_hit ? 1 : 0) << ',' << s.attempt
        << ',' << s.retries_used << ',' << s.fault_epoch << ','
        << simtime_to_seconds(s.arrival) << ',' << s.entry_ms() << ',' << s.forward_ms()
        << ',' << s.disk_ms() << ',' << s.reply_ms() << ',' << s.total_ms() << '\n';
  }
}

void write_summary(std::ostream& out, const Snapshot& snapshot) {
  out << "telemetry summary (" << snapshot.nodes << " nodes)\n\n";

  TextTable counters({"Metric", "Value"});
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.kind != MetricKind::kCounter) continue;
    std::string name = m.name;
    if (!m.labels.empty()) name += " [" + labels_to_string(m.labels) + "]";
    counters.cell(std::move(name)).cell(static_cast<long long>(m.count)).end_row();
  }
  counters.print(out);
  out << '\n';

  if (const MetricSnapshot* h = snapshot.find("requests.response_ms"); h != nullptr) {
    TextTable latency({"Response time", "ms"});
    latency.cell("p50").cell(h->histogram.quantile(0.50), 3).end_row();
    latency.cell("p95").cell(h->histogram.quantile(0.95), 3).end_row();
    latency.cell("p99").cell(h->histogram.quantile(0.99), 3).end_row();
    latency.print(out);
    out << '\n';
  }

  // Per-resource breakdown reconstructed from the sampled spans (the
  // paper-style view: where does a request's time go?).
  double entry = 0.0;
  double forward = 0.0;
  double disk = 0.0;
  double reply = 0.0;
  std::size_t completed = 0;
  for (const Span& s : snapshot.spans) {
    if (s.failed()) continue;
    entry += s.entry_ms();
    forward += s.forward_ms();
    disk += s.disk_ms();
    reply += s.reply_ms();
    ++completed;
  }
  if (completed > 0) {
    const auto n = static_cast<double>(completed);
    TextTable stages({"Stage", "Mean ms"});
    stages.cell("entry (cpu)").cell(entry / n, 4).end_row();
    stages.cell("hand-off").cell(forward / n, 4).end_row();
    stages.cell("storage").cell(disk / n, 4).end_row();
    stages.cell("reply (nic)").cell(reply / n, 4).end_row();
    stages.print(out);
    out << '\n';
  }

  out << "spans: kept " << snapshot.spans.size() << " of " << snapshot.spans_recorded
      << " recorded (1-in-" << snapshot.span_sample_every << " sampling, "
      << snapshot.spans_overwritten << " overwritten)\n";
  if (!snapshot.fault_events.empty()) {
    out << "fault events: " << snapshot.fault_events.size() << '\n';
  }
}

void export_to(const std::string& path, const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) throw_error("cannot open output file: " + path);
  writer(out);
  if (!out.flush()) throw_error("cannot write output file: " + path);
}

void export_chrome_trace(const std::string& path, const Snapshot& snapshot) {
  export_to(path, [&](std::ostream& out) { write_chrome_trace(out, snapshot); });
}

void export_metrics_csv(const std::string& path, const Snapshot& snapshot) {
  export_to(path, [&](std::ostream& out) { write_metrics_csv(out, snapshot); });
}

void export_timeseries_csv(const std::string& path, const Snapshot& snapshot) {
  export_to(path, [&](std::ostream& out) { write_timeseries_csv(out, snapshot); });
}

void export_spans_csv(const std::string& path, const Snapshot& snapshot) {
  export_to(path, [&](std::ostream& out) { write_spans_csv(out, snapshot); });
}

}  // namespace l2s::telemetry
