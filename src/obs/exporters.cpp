#include "l2sim/obs/exporters.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "l2sim/telemetry/exporters.hpp"

namespace l2s::obs {

namespace {

/// Chrome trace timestamps are microseconds; SimTime is nanoseconds.
[[nodiscard]] double to_us(SimTime t) { return static_cast<double>(t) / 1000.0; }

[[nodiscard]] int pid_of(const DecisionRecord& rec) { return rec.node >= 0 ? rec.node : 0; }

}  // namespace

void write_decisions_csv(std::ostream& out, const DecisionTrace& trace) {
  out << "index,time_s,pass,kind,cause,request,node,target,attempt,detail\n";
  out << std::setprecision(15);
  std::uint64_t index = trace.first_index();
  for (const DecisionRecord& rec : trace.records) {
    out << index++ << ',' << simtime_to_seconds(rec.time) << ','
        << static_cast<int>(rec.pass) << ',' << to_string(rec.kind) << ','
        << to_string(rec.cause) << ',' << rec.request << ',' << rec.node << ','
        << rec.target << ',' << rec.attempt << ',' << rec.detail << '\n';
  }
}

void write_decisions_summary(std::ostream& out, const DecisionTrace& trace) {
  out << "decisions: kept " << trace.records.size() << " of " << trace.recorded
      << " recorded (" << trace.dropped << " dropped, ring capacity ";
  if (trace.capacity == 0) {
    out << "unbounded";
  } else {
    out << trace.capacity;
  }
  out << ")\n";
}

std::vector<std::string> decision_chrome_events(const DecisionTrace& trace) {
  std::vector<std::string> events;
  events.reserve(trace.records.size());
  std::uint64_t index = trace.first_index();
  for (const DecisionRecord& rec : trace.records) {
    std::ostringstream ev;
    ev << std::setprecision(15);
    ev << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << to_string(rec.kind) << '/'
       << to_string(rec.cause) << "\",\"pid\":" << pid_of(rec)
       << ",\"tid\":0,\"ts\":" << to_us(rec.time) << ",\"args\":{\"index\":" << index
       << ",\"request\":" << rec.request << ",\"target\":" << rec.target
       << ",\"attempt\":" << rec.attempt << ",\"detail\":" << rec.detail
       << ",\"pass\":" << static_cast<int>(rec.pass) << "}}";
    events.push_back(ev.str());

    // Cross-node dispatches additionally draw a flow arrow from the entry
    // node's hand-off track to the target node's storage track — the visual
    // join between "the dispatcher chose node T" and the work landing there.
    if (rec.kind == DecisionKind::kDispatch && rec.target >= 0 && rec.target != rec.node) {
      std::ostringstream fs;
      fs << std::setprecision(15);
      fs << "{\"ph\":\"s\",\"cat\":\"dispatch\",\"name\":\"dispatch\",\"id\":" << index
         << ",\"pid\":" << pid_of(rec) << ",\"tid\":1,\"ts\":" << to_us(rec.time) << "}";
      events.push_back(fs.str());
      std::ostringstream ff;
      ff << std::setprecision(15);
      ff << "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"dispatch\",\"name\":\"dispatch\",\"id\":"
         << index << ",\"pid\":" << rec.target << ",\"tid\":2,\"ts\":" << to_us(rec.time)
         << "}";
      events.push_back(ff.str());
    }
    ++index;
  }
  return events;
}

void write_chrome_trace_with_decisions(std::ostream& out,
                                       const telemetry::Snapshot& snapshot,
                                       const DecisionTrace& trace) {
  telemetry::write_chrome_trace(out, snapshot, decision_chrome_events(trace));
}

void export_decisions_csv(const std::string& path, const DecisionTrace& trace) {
  telemetry::export_to(path, [&](std::ostream& out) { write_decisions_csv(out, trace); });
}

void export_chrome_trace_with_decisions(const std::string& path,
                                        const telemetry::Snapshot& snapshot,
                                        const DecisionTrace& trace) {
  telemetry::export_to(
      path, [&](std::ostream& out) { write_chrome_trace_with_decisions(out, snapshot, trace); });
}

}  // namespace l2s::obs
