// Decision-trace exporters: turn a DecisionTrace into artifacts — a CSV of
// every retained record, and Chrome trace-event JSON where decisions become
// instant events joined onto the telemetry span tracks (plus flow arrows
// for cross-node dispatches). Like the telemetry exporters these are pure
// functions of already-collected data; they never touch the simulation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "l2sim/obs/decision.hpp"

namespace l2s::telemetry {
struct Snapshot;
}

namespace l2s::obs {

/// One row per retained record:
/// index,time_s,pass,kind,cause,request,node,target,attempt,detail.
/// `index` is the global record index (first row = trace.first_index()).
void write_decisions_csv(std::ostream& out, const DecisionTrace& trace);
void export_decisions_csv(const std::string& path, const DecisionTrace& trace);

/// One line saying what the bounded ring kept:
/// "decisions: kept K of N recorded (D dropped, ring capacity C)".
void write_decisions_summary(std::ostream& out, const DecisionTrace& trace);

/// Pre-rendered Chrome trace-event JSON objects for every retained record:
/// an instant event on the deciding node's process (the same pid the
/// telemetry span tracks use, so decisions land between the spans they
/// explain), plus a flow arrow from entry to target for cross-node
/// dispatches. Feed to telemetry::write_chrome_trace's extra_events.
[[nodiscard]] std::vector<std::string> decision_chrome_events(const DecisionTrace& trace);

/// Chrome trace combining a telemetry snapshot's span/counter tracks with
/// the decision log's instant/flow events — one file, one timeline.
void write_chrome_trace_with_decisions(std::ostream& out,
                                       const telemetry::Snapshot& snapshot,
                                       const DecisionTrace& trace);
void export_chrome_trace_with_decisions(const std::string& path,
                                        const telemetry::Snapshot& snapshot,
                                        const DecisionTrace& trace);

}  // namespace l2s::obs
