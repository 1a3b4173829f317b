// Exporters: turn a telemetry::Snapshot into artifacts people and tools
// consume — a Chrome trace-event JSON file (load it in Perfetto / DevTools;
// one process per node, one track per resource), CSV time-series for
// plotting pipelines, a spans CSV with the per-resource breakdown, and a
// human summary table. Exporters are pure functions of the snapshot; they
// never touch the simulation.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "l2sim/telemetry/registry.hpp"

namespace l2s::telemetry {

/// Chrome trace-event JSON (the "traceEvents" array format). Spans become
/// "X" complete events on per-node resource tracks (entry / hand-off /
/// storage / reply), fault transitions and failed requests become instant
/// events, and the probe's timeline columns become "C" counter tracks.
/// Timestamps are microseconds (SimTime ns / 1000). `extra_events` are
/// pre-rendered JSON event objects (e.g. from obs::decision_chrome_events)
/// spliced into the traceEvents array.
void write_chrome_trace(std::ostream& out, const Snapshot& snapshot,
                        const std::vector<std::string>& extra_events);
void write_chrome_trace(std::ostream& out, const Snapshot& snapshot);

/// Scalar metrics (counters, gauges, histogram quantiles) as
/// name,labels,kind,count,value,min,max rows.
void write_metrics_csv(std::ostream& out, const Snapshot& snapshot);

/// The probe's timeline, then the bucket series, as long-format
/// name,labels,time_s,value rows.
void write_timeseries_csv(std::ostream& out, const Snapshot& snapshot);

/// Sampled spans, one row each, with the per-resource stage breakdown.
void write_spans_csv(std::ostream& out, const Snapshot& snapshot);

/// Human-readable summary: headline counters, response-time quantiles,
/// span accounting and the per-resource stage means reconstructed from the
/// sampled spans.
void write_summary(std::ostream& out, const Snapshot& snapshot);

/// Write `path` through `writer`. Throws l2s::Error naming the path when
/// the file cannot be opened, or when the stream has failed once the
/// writer's output is flushed (a full disk, /dev/full). Every path-based
/// exporter, telemetry's and obs's alike, writes through it.
void export_to(const std::string& path, const std::function<void(std::ostream&)>& writer);

/// Path-based wrappers over export_to.
void export_chrome_trace(const std::string& path, const Snapshot& snapshot);
void export_metrics_csv(const std::string& path, const Snapshot& snapshot);
void export_timeseries_csv(const std::string& path, const Snapshot& snapshot);
void export_spans_csv(const std::string& path, const Snapshot& snapshot);

}  // namespace l2s::telemetry
