// Exporter round-trips: the Chrome trace-event JSON must parse back with a
// real (if small) JSON parser, and the CSV / summary writers must produce
// the advertised shapes from a live simulation snapshot.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "l2sim/common/error.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/obs/exporters.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/telemetry/exporters.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::telemetry {
namespace {

// --- a tiny recursive-descent JSON parser (tests only) ---------------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  [[nodiscard]] const JsonObject& object() const { return std::get<JsonObject>(v); }
  [[nodiscard]] const JsonArray& array() const { return std::get<JsonArray>(v); }
  [[nodiscard]] const std::string& str() const { return std::get<std::string>(v); }
  [[nodiscard]] double num() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': literal("true"); return JsonValue{true};
      case 'f': literal("false"); return JsonValue{false};
      case 'n': literal("null"); return JsonValue{nullptr};
      default: return JsonValue{number()};
    }
  }

  void literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      throw std::runtime_error("bad literal at " + std::to_string(pos_));
    }
    pos_ += word.size();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            pos_ += 4;  // tests never need the decoded code point
            out += '?';
            break;
          default: throw std::runtime_error("bad escape char");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number at " + std::to_string(pos_));
    return std::stod(text_.substr(start, pos_ - start));
  }

  JsonValue array() {
    expect('[');
    JsonArray items;
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(items)};
    }
    while (true) {
      items.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(items)};
    }
  }

  JsonValue object() {
    expect('{');
    JsonObject members;
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(members)};
    }
    while (true) {
      std::string key = string();
      expect(':');
      members.emplace(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(members)};
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- fixtures ---------------------------------------------------------------

Snapshot live_snapshot(int nodes = 4, bool with_crash = false) {
  trace::SyntheticSpec spec;
  spec.name = "export";
  spec.files = 300;
  spec.avg_file_kb = 8.0;
  spec.requests = 4000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 101;
  const auto tr = trace::generate(spec);

  core::SimConfig cfg;
  cfg.nodes = nodes;
  cfg.node.cache_bytes = 4 * kMiB;
  cfg.telemetry.enabled = true;
  cfg.telemetry.span_sample_every = 1;
  cfg.telemetry.span_capacity = 1 << 14;
  if (with_crash) cfg.fault_plan.crashes.push_back({1, 0.2});
  core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
  const auto r = sim.run();
  return *r.telemetry;
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) {
    if (c == '\n') ++n;
  }
  return n;
}

// --- Chrome trace ------------------------------------------------------------

TEST(TelemetryExport, ChromeTraceParsesBack) {
  const Snapshot snap = live_snapshot();
  std::ostringstream out;
  write_chrome_trace(out, snap);
  const std::string text = out.str();

  const JsonValue root = JsonParser(text).parse();
  ASSERT_TRUE(root.is_object());
  const auto& top = root.object();
  ASSERT_TRUE(top.contains("traceEvents"));
  ASSERT_TRUE(top.at("traceEvents").is_array());
  const JsonArray& events = top.at("traceEvents").array();
  ASSERT_GT(events.size(), snap.spans.size());  // slices + metadata + counters

  std::size_t slices = 0;
  std::size_t metadata = 0;
  std::size_t counters = 0;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const auto& obj = ev.object();
    ASSERT_TRUE(obj.contains("ph"));
    const std::string& ph = obj.at("ph").str();
    if (ph == "X") {
      ++slices;
      ASSERT_TRUE(obj.contains("ts"));
      ASSERT_TRUE(obj.contains("dur"));
      ASSERT_TRUE(obj.contains("pid"));
      EXPECT_GE(obj.at("ts").num(), 0.0);
      EXPECT_GE(obj.at("dur").num(), 0.0);
      const double pid = obj.at("pid").num();
      EXPECT_GE(pid, 0.0);
      EXPECT_LT(pid, static_cast<double>(snap.nodes));
    } else if (ph == "M") {
      ++metadata;
      EXPECT_TRUE(obj.contains("name"));
    } else if (ph == "C") {
      ++counters;
      ASSERT_TRUE(obj.contains("args"));
      EXPECT_TRUE(obj.at("args").is_object());
    }
  }
  // Every node contributes one process-name record plus four track names.
  EXPECT_EQ(metadata, static_cast<std::size_t>(snap.nodes) * 5u);
  EXPECT_GT(slices, 0u);
  EXPECT_GT(counters, 0u);  // probe series become counter tracks
}

TEST(TelemetryExport, ChromeTraceCarriesFaultInstants) {
  const Snapshot snap = live_snapshot(8, /*with_crash=*/true);
  ASSERT_FALSE(snap.fault_events.empty());
  std::ostringstream out;
  write_chrome_trace(out, snap);

  const JsonValue root = JsonParser(out.str()).parse();
  std::size_t instants = 0;
  for (const JsonValue& ev : root.object().at("traceEvents").array()) {
    if (ev.object().at("ph").str() == "i") ++instants;
  }
  EXPECT_GE(instants, snap.fault_events.size());
}

// --- CSV + summary -----------------------------------------------------------

TEST(TelemetryExport, MetricsCsvHasOneRowPerScalarMetric) {
  const Snapshot snap = live_snapshot();
  std::ostringstream out;
  write_metrics_csv(out, snap);
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "name,labels,kind,count,value,min,max,p50,p95,p99");
  std::size_t scalar = 0;
  for (const auto& m : snap.metrics) {
    if (m.kind == MetricKind::kCounter || m.kind == MetricKind::kGauge ||
        m.kind == MetricKind::kHistogram) {
      ++scalar;
    }
  }
  EXPECT_GT(scalar, 0u);
  EXPECT_EQ(count_lines(text), scalar + 1);  // header + one row each
}

TEST(TelemetryExport, TimeseriesCsvCoversEverySeriesPoint) {
  const Snapshot snap = live_snapshot();
  std::ostringstream out;
  write_timeseries_csv(out, snap);
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), "name,labels,time_s,value");
  std::size_t points = 0;
  for (const auto& m : snap.metrics) {
    if (m.kind == MetricKind::kBucketSeries) points += m.series_buckets.size();
  }
  // Six per-node columns plus via.in_flight at every tick.
  ASSERT_EQ(snap.timelines.size(), 1u);
  const Timeline& tl = snap.timelines.front();
  EXPECT_GT(tl.ticks(), 0u);
  points += tl.ticks() * (6 * static_cast<std::size_t>(tl.nodes()) + 1);
  EXPECT_EQ(count_lines(text), points + 1);
}

// A merged snapshot keeps each run's table, and the exports write every
// sample of both exactly once, each series in job order: a 2-node run's
// ticks before a 4-node run's.
TEST(TelemetryExport, MergedTimelinesExportEverySampleOnceInJobOrder) {
  const auto run = [](int nodes, SimTime first_tick, std::size_t ticks) {
    Snapshot snap;
    snap.nodes = nodes;
    Timeline& tl = snap.timelines.emplace_back(nodes);
    for (std::size_t k = 0; k < ticks; ++k) {
      const SimTime t = first_tick + static_cast<SimTime>(k) * 1000;
      const auto row = tl.append(t, 100 + k);
      for (int n = 0; n < nodes; ++n) {
        Timeline::Node& e = row[static_cast<std::size_t>(n)];
        const auto base = static_cast<std::uint32_t>(10 * n + static_cast<int>(k));
        e.open_connections = base + 1;
        e.cpu_queue = base + 2;
        e.disk_queue = base + 3;
        e.nic_tx_queue = base + 4;
        e.cache_used = base + 5;
        e.cpu_utilization = 0.125 * (n + 1);
      }
    }
    return snap;
  };
  Snapshot merged = run(2, 1000, 2);
  merged.merge(run(4, 5000, 3));
  ASSERT_EQ(merged.timelines.size(), 2u);
  const std::size_t samples = 2 * (6 * 2 + 1) + 3 * (6 * 4 + 1);

  // Every expected row, keyed by series and time.
  std::map<std::string, int> expected;
  std::map<std::string, SimTime> last_time;  ///< per series, to check the order
  for (const Timeline& tl : merged.timelines) {
    for (std::size_t k = 0; k < tl.ticks(); ++k) {
      std::ostringstream via;
      via << std::setprecision(15) << "via.in_flight,," << simtime_to_seconds(tl.time(k)) << ','
          << static_cast<double>(tl.via_in_flight(k));
      ++expected[via.str()];
      for (int n = 0; n < tl.nodes(); ++n) {
        const Timeline::Node& e = tl.node(k, n);
        const std::pair<const char*, double> columns[] = {
            {"node.open_connections", e.open_connections},
            {"node.cpu_queue", e.cpu_queue},
            {"node.disk_queue", e.disk_queue},
            {"node.nic_tx_queue", e.nic_tx_queue},
            {"node.cache_used_bytes", static_cast<double>(e.cache_used)},
            {"node.cpu_utilization", e.cpu_utilization}};
        for (const auto& [name, value] : columns) {
          std::ostringstream row;
          row << std::setprecision(15) << name << ",node=" << n << ','
              << simtime_to_seconds(tl.time(k)) << ',' << value;
          ++expected[row.str()];
        }
      }
    }
  }
  ASSERT_EQ(expected.size(), samples);

  std::ostringstream csv;
  write_timeseries_csv(csv, merged);
  std::istringstream lines(csv.str());
  std::string line;
  std::getline(lines, line);  // header
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    ASSERT_EQ(expected.count(line), 1u) << line;
    EXPECT_EQ(--expected[line], 0) << "twice: " << line;
    const std::size_t time_at = line.find(',', line.find(',') + 1);
    const std::string series = line.substr(0, time_at);
    const SimTime t = seconds_to_simtime(std::stod(line.substr(time_at + 1)));
    if (last_time.contains(series)) {
      EXPECT_GT(t, last_time[series]) << line;
    }
    last_time[series] = t;
  }
  EXPECT_EQ(rows, samples);

  // The Chrome trace carries the same samples as counter events.
  std::ostringstream trace;
  write_chrome_trace(trace, merged);
  const JsonValue root = JsonParser(trace.str()).parse();
  std::size_t counters = 0;
  std::map<std::string, double> last_ts;
  for (const JsonValue& ev : root.object().at("traceEvents").array()) {
    const auto& obj = ev.object();
    if (obj.at("ph").str() != "C") continue;
    ++counters;
    const std::string series =
        obj.at("name").str() + "@" + std::to_string(static_cast<int>(obj.at("pid").num()));
    const double ts = obj.at("ts").num();
    if (last_ts.contains(series)) {
      EXPECT_GT(ts, last_ts[series]) << series;
    }
    last_ts[series] = ts;
  }
  EXPECT_EQ(counters, samples);
}

TEST(TelemetryExport, SpansCsvHasOneRowPerSpan) {
  const Snapshot snap = live_snapshot();
  std::ostringstream out;
  write_spans_csv(out, snap);
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "request_id,entry_node,service_node,verdict,cache_hit,attempt,"
            "retries_used,fault_epoch,arrival_s,entry_ms,forward_ms,disk_ms,"
            "reply_ms,total_ms");
  EXPECT_EQ(count_lines(text), snap.spans.size() + 1);
}

TEST(TelemetryExport, SummaryMentionsHeadlineSections) {
  const Snapshot snap = live_snapshot();
  std::ostringstream out;
  write_summary(out, snap);
  const std::string text = out.str();
  EXPECT_NE(text.find("telemetry summary"), std::string::npos);
  EXPECT_NE(text.find("requests.completed"), std::string::npos);
  EXPECT_NE(text.find("Response time"), std::string::npos);
  EXPECT_NE(text.find("entry (cpu)"), std::string::npos);
  EXPECT_NE(text.find("spans: kept"), std::string::npos);
}

TEST(TelemetryExport, PathWrapperThrowsOnUnwritablePath) {
  const Snapshot snap;
  EXPECT_THROW(export_chrome_trace("/nonexistent-dir/trace.json", snap),
               std::runtime_error);
}

// /dev/full opens fine and fails every write: each path-based export, and
// the load timeline a run streams to disk, must report that, naming the
// path, instead of returning normally.
TEST(TelemetryExport, EveryExportReportsAFailedWrite) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) GTEST_SKIP() << full << " does not exist here";
  const Snapshot snap = live_snapshot();
  obs::DecisionTrace decisions;
  decisions.records.resize(8);
  decisions.recorded = 8;

  const auto expect_write_error = [&](const char* what, const std::function<void()>& fn) {
    try {
      fn();
      ADD_FAILURE() << what << " returned normally";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(full), std::string::npos) << what << ": " << e.what();
    }
  };
  expect_write_error("export_chrome_trace", [&] { export_chrome_trace(full, snap); });
  expect_write_error("export_metrics_csv", [&] { export_metrics_csv(full, snap); });
  expect_write_error("export_timeseries_csv", [&] { export_timeseries_csv(full, snap); });
  expect_write_error("export_spans_csv", [&] { export_spans_csv(full, snap); });
  expect_write_error("export_decisions_csv",
                     [&] { obs::export_decisions_csv(full, decisions); });
  expect_write_error("export_chrome_trace_with_decisions",
                     [&] { obs::export_chrome_trace_with_decisions(full, snap, decisions); });
  expect_write_error("timeline_csv_path", [&] {
    trace::SyntheticSpec spec;
    spec.files = 100;
    spec.requests = 500;
    const auto tr = trace::generate(spec);
    core::SimConfig cfg;
    cfg.nodes = 4;
    cfg.timeline_csv_path = full;
    core::ClusterSimulation sim(cfg, tr, std::make_unique<policy::L2sPolicy>());
    (void)sim.run();
  });
}

}  // namespace
}  // namespace l2s::telemetry
