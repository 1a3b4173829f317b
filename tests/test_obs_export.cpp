// Decision-trace exporter round-trips: the CSV must reproduce every
// retained record field for field, and the combined Chrome trace must parse
// back with a real JSON parser — decision instants on the node tracks and
// flow arrows pairing up across cross-node dispatches.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "l2sim/core/experiment.hpp"
#include "l2sim/obs/exporters.hpp"
#include "l2sim/telemetry/registry.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::obs {
namespace {

// --- a tiny recursive-descent JSON parser (tests only) ---------------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(v); }
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

/// A live run with both telemetry and the recorder on, so the combined
/// trace carries span slices AND decision events.
core::SimResult instrumented_run(std::uint64_t ring_capacity = 0) {
  trace::SyntheticSpec spec;
  spec.name = "obs-export";
  spec.files = 150;
  spec.avg_file_kb = 8.0;
  spec.requests = 2000;
  spec.avg_request_kb = 6.0;
  spec.alpha = 0.9;
  spec.seed = 5;
  const auto tr = trace::generate(spec);

  core::SimConfig cfg;
  cfg.nodes = 4;
  cfg.node.cache_bytes = 2 * kMiB;
  cfg.telemetry.enabled = true;
  cfg.telemetry.span_sample_every = 4;
  cfg.obs.enabled = true;
  cfg.obs.capacity = ring_capacity;
  return core::run_once(tr, cfg, core::PolicyKind::kL2s);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

// --- decisions CSV -----------------------------------------------------------

TEST(DecisionExport, CsvReproducesEveryRecordFieldForField) {
  const auto r = instrumented_run();
  ASSERT_NE(r.decisions, nullptr);
  const DecisionTrace& d = *r.decisions;
  ASSERT_GT(d.records.size(), 0u);

  std::ostringstream out;
  write_decisions_csv(out, d);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), d.records.size() + 1);
  EXPECT_EQ(lines[0], "index,time_s,pass,kind,cause,request,node,target,attempt,detail");

  for (std::size_t i = 0; i < d.records.size(); ++i) {
    const DecisionRecord& rec = d.records[i];
    const auto f = split_csv(lines[i + 1]);
    ASSERT_EQ(f.size(), 10u) << lines[i + 1];
    EXPECT_EQ(std::stoull(f[0]), d.first_index() + i);
    EXPECT_DOUBLE_EQ(std::stod(f[1]), simtime_to_seconds(rec.time));
    EXPECT_EQ(std::stoi(f[2]), static_cast<int>(rec.pass));
    EXPECT_EQ(f[3], to_string(rec.kind));
    EXPECT_EQ(f[4], to_string(rec.cause));
    EXPECT_EQ(std::stoull(f[5]), rec.request);
    EXPECT_EQ(std::stoi(f[6]), rec.node);
    EXPECT_EQ(std::stoi(f[7]), rec.target);
    EXPECT_EQ(std::stoul(f[8]), rec.attempt);
    EXPECT_EQ(std::stoll(f[9]), rec.detail);
  }
}

TEST(DecisionExport, BoundedRingCsvStartsAtTheDropCount) {
  const auto r = instrumented_run(/*ring_capacity=*/128);
  ASSERT_NE(r.decisions, nullptr);
  const DecisionTrace& d = *r.decisions;
  ASSERT_GT(d.dropped, 0u) << "fixture too small to overflow a 128-record ring";

  std::ostringstream out;
  write_decisions_csv(out, d);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 129u);
  EXPECT_EQ(std::stoull(split_csv(lines[1])[0]), d.dropped);
  EXPECT_EQ(std::stoull(split_csv(lines.back())[0]), d.recorded - 1);

  // The drop is said, not only encoded in the first index.
  std::ostringstream summary;
  write_decisions_summary(summary, d);
  EXPECT_EQ(summary.str(), "decisions: kept 128 of " + std::to_string(d.recorded) +
                               " recorded (" + std::to_string(d.dropped) +
                               " dropped, ring capacity 128)\n");
}

// --- combined Chrome trace ---------------------------------------------------

TEST(DecisionExport, ChromeTraceWithDecisionsParsesBack) {
  const auto r = instrumented_run();
  ASSERT_NE(r.telemetry, nullptr);
  ASSERT_NE(r.decisions, nullptr);
  const DecisionTrace& d = *r.decisions;

  std::ostringstream out;
  write_chrome_trace_with_decisions(out, *r.telemetry, d);
  const std::string text = out.str();

  JsonValue root = JsonParser(text).parse();
  ASSERT_TRUE(root.is_object());
  const auto& events = root.object().at("traceEvents").array();

  // Decision instants are the only "s":"t" instants in the file; every
  // retained record contributes exactly one, named kind/cause.
  std::size_t instants = 0;
  std::size_t span_slices = 0;
  bool saw_first_index = false;
  for (const JsonValue& ev : events) {
    const JsonObject& obj = ev.object();
    const std::string& ph = obj.at("ph").str();
    if (ph == "X") ++span_slices;
    if (ph != "i") continue;
    const auto s = obj.find("s");
    if (s == obj.end() || s->second.str() != "t") continue;
    ++instants;
    EXPECT_NE(obj.at("name").str().find('/'), std::string::npos);
    const JsonObject& args = obj.at("args").object();
    if (static_cast<std::uint64_t>(args.at("index").num()) == d.first_index()) {
      saw_first_index = true;
    }
  }
  EXPECT_EQ(instants, d.records.size());
  EXPECT_TRUE(saw_first_index);
  // The telemetry side of the join survives: span slices are still there.
  EXPECT_GT(span_slices, 0u);
}

TEST(DecisionExport, DispatchFlowArrowsPairUpAcrossNodes) {
  const auto r = instrumented_run();
  const DecisionTrace& d = *r.decisions;
  std::size_t cross_node = 0;
  for (const DecisionRecord& rec : d.records) {
    if (rec.kind == DecisionKind::kDispatch && rec.target >= 0 && rec.target != rec.node) {
      ++cross_node;
    }
  }
  ASSERT_GT(cross_node, 0u) << "fixture produced no forwarded dispatches";

  std::ostringstream out;
  write_chrome_trace_with_decisions(out, *r.telemetry, d);
  JsonValue root = JsonParser(out.str()).parse();

  std::set<std::uint64_t> starts;
  std::set<std::uint64_t> finishes;
  for (const JsonValue& ev : root.object().at("traceEvents").array()) {
    const JsonObject& obj = ev.object();
    const auto cat = obj.find("cat");
    if (cat == obj.end() || cat->second.str() != "dispatch") continue;
    const auto id = static_cast<std::uint64_t>(obj.at("id").num());
    const std::string& ph = obj.at("ph").str();
    if (ph == "s") starts.insert(id);
    if (ph == "f") finishes.insert(id);
  }
  EXPECT_EQ(starts.size(), cross_node);
  EXPECT_EQ(starts, finishes);  // every arrow has both ends
}

}  // namespace
}  // namespace l2s::obs
