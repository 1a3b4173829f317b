// l2sim_perf: times one benchmark workload through the public library API
// (trace::generate -> ClusterSimulation(config, trace, policy) -> run())
// and prints one JSON object of raw samples on stdout. perfbench/run.py
// builds it, checks the samples and turns them into metrics.
//
//   l2sim_perf --workload NAME --seed N --mode e2e|traced|quiet
//              [--seconds S] [--smoke] [--out-dir DIR]
//
//   e2e     fifteen timed set-ups (trace generation + construction), then
//           untraced repetitions for about S seconds (at least three), each
//           on a freshly built simulation, with the host's speed measured
//           around both. End-to-end metrics come from here.
//   traced  one untraced repetition, then one whose policy is wrapped in
//           TimedPolicy (per-layer numbers), then the standalone cache probe.
//   quiet   one untraced repetition with telemetry and the flight recorder
//           off: the observer companion of lard-nasa-open-rack.
//
// All times are host time (steady_clock); e2e mode also reports the host's
// speed for run.py to scale them by. Simulated quantities are echoed only
// so that run.py can check them and print them as a correctness record.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "l2sim/cache/lru_cache.hpp"
#include "l2sim/common/cli_args.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/core/simulation.hpp"
#include "l2sim/core/spec.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace {

using namespace l2s;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- host speed -------------------------------------------------------------

/// reference_seconds() on the baseline host of perfbench/BASELINE.md.
constexpr double kReferenceNominalS = 0.140;

/// Fixed work owned by the benchmark and independent of the library: a
/// binary heap of 4096 timed entries driving random reads and writes in a
/// 4 MiB table, the access pattern of an event kernel. Shared hosts shift
/// between speed regimes that last minutes and move every host time by up
/// to 30%; this kernel's time follows those regimes, so e2e mode times it
/// around the set-ups and around every repetition, and run.py scales host
/// times to kReferenceNominalS.
double reference_seconds() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);
  std::fill(table.begin(), table.end(), 1);
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::mt19937_64 rng(42);
  for (std::uint32_t id = 0; id < 4096; ++id) heap.push({rng() % 1000000, id});
  const std::uint64_t mask = table.size() - 1;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 400000; ++i) {
    const auto [t, id] = heap.top();
    heap.pop();
    acc += table[(t * 2654435761U + id) & mask];
    table[(acc * 40503U) & mask] += id;
    heap.push({t + rng() % 1000, id});
  }
  return seconds_between(t0, Clock::now());
}

/// Nominal over measured reference time: above 1 on a fast host.
double host_speed(double ref_before, double ref_after) {
  return kReferenceNominalS / (0.5 * (ref_before + ref_after));
}

// --- workloads --------------------------------------------------------------

/// `l2sim run --paper` request scale when --scale is not given.
constexpr double kCliScale = 0.1;
/// --smoke shrinks every trace to this share of its benchmark size.
constexpr double kSmokeScale = 0.02;
/// Set-up is short next to a run (10-125 ms), so e2e mode times it this
/// many times on its own and run.py reports the median.
constexpr int kSetupSamples = 15;

struct Workload {
  core::ExperimentSpec spec;       ///< cluster config, policy, K, export paths
  trace::SyntheticSpec trace;      ///< the paper trace's generator input
  std::uint64_t stream_seed = 0;   ///< seed of the request stream
};

/// The benchmark's workloads. `seed` offsets the request stream's and the
/// simulation's seeds, so --seed 0 is exactly the `l2sim run` default.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                       const std::string& out_dir) {
  Workload w;
  core::ExperimentSpec& s = w.spec;
  core::SimConfig& cfg = s.sim;
  std::string paper;
  double scale = kCliScale;
  if (name == "l2s-calgary-128") {
    // Why: broadcasts dominate. 174 events/req and 1.69 M VIA messages,
    // against 72.5 events/req at 64 nodes: the policy and VIA broadcast
    // path and the kernel backlog carry most of the work, so cheaper L2S
    // broadcasts show here.
    paper = "calgary";
    s.policy = core::PolicyKind::kL2s;
    cfg.nodes = 128;
  } else if (name == "trad-clarknet-16") {
    // Why: the bypass workload. Zero VIA messages, 6.6 events/req, a 61%
    // miss rate and the largest trace: kernel, engine, cache and disk carry
    // the work, and trace generation dominates setup_s. A broadcast
    // optimization must predict no change here.
    paper = "clarknet";
    scale = 0.2;
    s.policy = core::PolicyKind::kTraditional;
    cfg.nodes = 16;
  } else if (name == "lard-nasa-open-rack") {
    // Why: the same layers used differently. Poisson arrivals at 400
    // connections/s (about 80% of capacity) instead of replay, persistent
    // connections (mean 4 requests) with back-end forwarding, rack-aware
    // topology links, and the observers: 1/64 telemetry spans plus the
    // flight recorder. The traced run writes and times their exports
    // (about 100 MB); untraced runs skip them.
    paper = "nasa";
    s.policy = core::PolicyKind::kLard;
    cfg.nodes = 32;
    cfg.topology.kind = net::TopologyKind::kRackAware;
    cfg.topology.racks = 4;
    cfg.topology.oversubscription = 4.0;
    cfg.arrival.open_loop_rate = 400.0;
    cfg.persistence.mean_requests_per_connection = 4.0;
    cfg.persistence.mode = core::PersistentMode::kBackendForwarding;
    cfg.telemetry.enabled = true;
    cfg.telemetry.span_sample_every = 64;
    cfg.obs.enabled = true;
    const std::filesystem::path dir(out_dir);
    s.output.trace_json_path = (dir / "trace.json").string();
    s.output.metrics_csv_path = (dir / "metrics.csv").string();
    s.output.timeseries_csv_path = (dir / "timeseries.csv").string();
    s.output.spans_csv_path = (dir / "spans.csv").string();
    s.output.decisions_csv_path = (dir / "decisions.csv").string();
  } else {
    throw Error("unknown workload: " + name);
  }
  cfg.node.cache_bytes = 32 * kMiB;
  cfg.seed += seed;
  s.set_shrink_seconds = 20.0 * scale;  // the CLI's K for a scaled trace
  w.trace = trace::paper_trace_spec(paper);
  w.trace.requests = static_cast<std::uint64_t>(
      static_cast<double>(w.trace.requests) * scale * (smoke ? kSmokeScale : 1.0));
  w.stream_seed = w.trace.seed + seed;
  return w;
}

/// The workload's input: the paper trace's calibrated file set (file sizes
/// per popularity rank, from the paper spec's own seed) with a request
/// stream drawn from `stream_seed`. Redrawing the file set as well would
/// move large files into the popular ranks and swing L2S's events/req on
/// l2s-calgary-128 between 131 and 174 across seeds; a new stream over the
/// same files keeps it within 170-179. File ids are popularity ranks in
/// both traces, so the stream's ids index the calibrated set unchanged.
trace::Trace make_trace(const Workload& w) {
  // Keep only the stream's file ids while the calibrated set is built, so
  // that set-up never holds two full request vectors: trad-clarknet-16's
  // peak RSS must stay the run's, not the input construction's.
  std::vector<trace::FileId> ids;
  {
    trace::SyntheticSpec stream_spec = w.trace;
    stream_spec.seed = w.stream_seed;
    const trace::Trace stream = trace::generate(stream_spec);
    ids.reserve(stream.request_count());
    for (const trace::Request& r : stream.requests()) ids.push_back(r.file);
  }
  trace::SyntheticSpec file_spec = w.trace;
  file_spec.requests = 1;
  storage::FileSet files = trace::generate(file_spec).files();
  std::vector<trace::Request> requests;
  requests.reserve(ids.size());
  for (const trace::FileId id : ids) requests.push_back({id, files.size_of(id)});
  return {w.trace.name, std::move(files), std::move(requests)};
}

/// The observer companion: the same workload with telemetry, the flight
/// recorder and their exports off.
Workload without_observers(Workload w) {
  w.spec.sim.telemetry.enabled = false;
  w.spec.sim.obs.enabled = false;
  w.spec.output = core::OutputSpec{};
  return w;
}

// --- the traced run's policy decorator ----------------------------------------

/// Forwards every Policy virtual to the policy core::make_policy built and
/// times each forwarded call (self time: a `done` continuation that runs
/// engine code inside select_service_node_async is excluded). It also
/// samples the scheduler backlog at every call. MetricsCollector reads the
/// non-virtual counters() of the policy it was handed, and
/// ClusterSimulation resets only ours after warm-up, so the inner counters
/// are reset at the measured pass's on_pass_start and mirrored into ours
/// after each call, outside the timed region.
class TimedPolicy final : public policy::Policy {
 public:
  explicit TimedPolicy(std::unique_ptr<policy::Policy> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] double self_seconds() const { return static_cast<double>(self_ns_) * 1e-9; }
  [[nodiscard]] std::size_t max_pending() const { return max_pending_; }
  [[nodiscard]] std::uint64_t events_warmup() const { return events_warmup_; }
  [[nodiscard]] Clock::time_point measured_start() const { return measured_start_; }

  [[nodiscard]] const char* name() const override {
    return timed([&] { return inner_->name(); });
  }
  void attach(const policy::ClusterContext& ctx) override {
    ctx_ = ctx;
    timed([&] { inner_->attach(ctx); });
    mirror();
  }
  void on_pass_start(int pass) override {
    // Every workload warms up, so pass 1 is the measured pass.
    if (pass == 1) {
      measured_start_ = Clock::now();
      events_warmup_ = ctx_.sched->events_processed();
      inner_->reset_counters();
    }
    timed([&] { inner_->on_pass_start(pass); });
    mirror();
  }
  [[nodiscard]] int entry_node(std::uint64_t seq, const trace::Request& r) override {
    const int out = timed([&] { return inner_->entry_node(seq, r); });
    mirror();
    return out;
  }
  [[nodiscard]] bool entry_is_dns() const override {
    return timed([&] { return inner_->entry_is_dns(); });
  }
  [[nodiscard]] int select_service_node(int entry, const trace::Request& r) override {
    const int out = timed([&] { return inner_->select_service_node(entry, r); });
    mirror();
    return out;
  }
  [[nodiscard]] bool decides_asynchronously() const override {
    return timed([&] { return inner_->decides_asynchronously(); });
  }
  void select_service_node_async(int entry, const trace::Request& r,
                                 std::function<void(int target)> done) override {
    auto resume = [this, done = std::move(done)](int target) {
      const bool paused = running_;
      if (paused) stop();
      done(target);
      if (paused) start();
    };
    timed([&] { inner_->select_service_node_async(entry, r, std::move(resume)); });
    mirror();
  }
  [[nodiscard]] SimTime forward_cpu_time(int entry) const override {
    return timed([&] { return inner_->forward_cpu_time(entry); });
  }
  void on_service_start(int node, const trace::Request& r) override {
    timed([&] { inner_->on_service_start(node, r); });
    mirror();
  }
  void on_complete(int node, const trace::Request& r) override {
    timed([&] { inner_->on_complete(node, r); });
    mirror();
  }
  [[nodiscard]] int select_next_in_connection(int current, const trace::Request& r) override {
    const int out = timed([&] { return inner_->select_next_in_connection(current, r); });
    mirror();
    return out;
  }
  void on_connection_migrated(int from, int to, const trace::Request& r) override {
    timed([&] { inner_->on_connection_migrated(from, to, r); });
    mirror();
  }
  void on_node_failed(int node) override {
    timed([&] { inner_->on_node_failed(node); });
    mirror();
  }
  void on_node_suspected(int node) override {
    timed([&] { inner_->on_node_suspected(node); });
    mirror();
  }
  void on_node_recovered(int node) override {
    timed([&] { inner_->on_node_recovered(node); });
    mirror();
  }
  void on_brownout(int level) override {
    timed([&] { inner_->on_brownout(level); });
    mirror();
  }

 private:
  /// Times one forwarded call unless an enclosing call's clock already runs.
  class Span {
   public:
    explicit Span(const TimedPolicy& p) : p_(p), outer_(!p.running_) {
      ++p_.calls_;
      if (outer_) p_.start();
    }
    ~Span() {
      if (outer_) p_.stop();
      if (p_.ctx_.sched != nullptr)
        p_.max_pending_ = std::max(p_.max_pending_, p_.ctx_.sched->pending());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const TimedPolicy& p_;
    bool outer_;
  };

  template <class F>
  std::invoke_result_t<F&> timed(F&& f) const {
    const Span span(*this);
    return f();
  }
  void start() const {
    running_ = true;
    since_ = Clock::now();
  }
  void stop() const {
    self_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - since_)
                    .count();
    running_ = false;
  }
  void mirror() { counters_ = inner_->counters(); }

  std::unique_ptr<policy::Policy> inner_;
  policy::ClusterContext ctx_;
  mutable bool running_ = false;
  mutable Clock::time_point since_;
  mutable std::int64_t self_ns_ = 0;
  mutable std::uint64_t calls_ = 0;
  mutable std::size_t max_pending_ = 0;
  std::uint64_t events_warmup_ = 0;
  Clock::time_point measured_start_;
};

// --- one repetition ---------------------------------------------------------

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Minimal JSON object writer: one line, numbers with all their digits.
class JsonObject {
 public:
  JsonObject& num(const char* key, double v) { return raw(key, json_number(v)); }
  JsonObject& num(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  JsonObject& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");  // callers pass names and hex digests only
  }
  JsonObject& raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + key + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? ", " : "") + items[i];
  return out + "]";
}

/// The record every repetition reports: host times plus the simulated
/// outputs run.py checks (measured pass unless noted).
void describe_result(JsonObject& o, const core::SimResult& r, std::uint64_t trace_requests,
                     std::uint64_t events, std::uint64_t simulated) {
  o.num("trace_requests", trace_requests)
      .num("simulated", simulated)  // warm-up + measured requests
      .num("events", events)        // warm-up + measured events
      .num("completed", r.completed)
      .num("failed", r.failed)
      .num("hit_rate", r.hit_rate)
      .num("throughput_rps", r.throughput_rps)
      .num("p99_ms", r.p99_response_ms)
      .num("via_messages", r.via_messages)
      .str("digest", core::result_digest_hex(r));
}

std::uint64_t simulated_requests(const Workload& w, const trace::Trace& tr) {
  return tr.request_count() * (w.spec.sim.warmup ? 2U : 1U);
}

/// Set-up as a user pays it: trace generation plus ClusterSimulation
/// construction. Host seconds.
double setup_only(const Workload& w) {
  const auto t0 = Clock::now();
  const trace::Trace tr = make_trace(w);
  const core::ClusterSimulation sim(
      w.spec.sim, tr, core::make_policy(w.spec.policy, w.spec.set_shrink_seconds));
  return seconds_between(t0, Clock::now());
}

/// One untraced repetition: set up, then time run().
JsonObject untraced_rep(const Workload& w) {
  const trace::Trace tr = make_trace(w);
  core::ClusterSimulation sim(w.spec.sim, tr,
                              core::make_policy(w.spec.policy, w.spec.set_shrink_seconds));
  const auto t0 = Clock::now();
  const core::SimResult r = sim.run();
  const auto t1 = Clock::now();

  JsonObject o;
  o.num("run_s", seconds_between(t0, t1));
  describe_result(o, r, tr.request_count(), sim.scheduler().events_processed(),
                  simulated_requests(w, tr));
  return o;
}

/// Replays the trace's file ids and sizes through a standalone LruCache at
/// the node capacity, lookup then insert-on-miss, as ServicePath does.
/// Median ns per lookup over three replays.
double cache_probe_ns_per_lookup(const trace::Trace& tr, Bytes capacity) {
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    cache::LruCache cache(capacity);
    const auto t0 = Clock::now();
    for (const trace::Request& r : tr.requests())
      if (!cache.lookup(r.file)) cache.insert(r.file, tr.files().size_of(r.file));
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(std::max<std::uint64_t>(1, tr.request_count())));
  }
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

/// One repetition through TimedPolicy, with the per-layer counters read
/// from the simulation's public accessors after run().
std::string traced_rep(const Workload& w) {
  const auto t0 = Clock::now();
  const trace::Trace tr = make_trace(w);
  const auto t1 = Clock::now();
  auto owned = std::make_unique<TimedPolicy>(
      core::make_policy(w.spec.policy, w.spec.set_shrink_seconds));
  const TimedPolicy& timed = *owned;
  core::ClusterSimulation sim(w.spec.sim, tr, std::move(owned));
  const auto t2 = Clock::now();
  const core::SimResult r = sim.run();
  const auto t3 = Clock::now();
  const double export_s = [&] {
    const auto e0 = Clock::now();
    core::export_outputs(w.spec.output, r);
    return seconds_between(e0, Clock::now());
  }();

  cache::CacheStats cache;
  std::uint64_t disk_reads = 0;
  double disk_busy_s = 0.0;
  for (int i = 0; i < w.spec.sim.nodes; ++i) {
    cluster::Node& n = sim.node(i);
    cache.merge(n.file_cache().stats());
    disk_reads += n.disk().resource().jobs_completed();
    disk_busy_s += simtime_to_seconds(n.disk().resource().busy_time());
  }
  const std::uint64_t events = sim.scheduler().events_processed();

  JsonObject o;
  o.num("generate_s", seconds_between(t0, t1))
      .num("build_s", seconds_between(t1, t2))
      .num("run_s", seconds_between(t2, t3))
      .num("warmup_s", seconds_between(t2, timed.measured_start()))
      .num("measured_s", seconds_between(timed.measured_start(), t3))
      .num("events_warmup", timed.events_warmup())
      .num("max_pending", static_cast<std::uint64_t>(timed.max_pending()))
      .num("policy_calls", timed.calls())
      .num("policy_self_s", timed.self_seconds())
      .num("load_broadcasts", r.load_broadcasts)
      .num("locality_broadcasts", r.locality_broadcasts)
      .num("cache_hits", cache.hits)
      .num("cache_misses", cache.misses)
      .num("cache_evictions", cache.evictions)
      .num("disk_reads", disk_reads)
      .num("disk_util",
           disk_busy_s / (static_cast<double>(w.spec.sim.nodes) * r.elapsed_seconds))
      .num("export_s", export_s)
      .num("cache_probe_ns_per_lookup",
           cache_probe_ns_per_lookup(tr, w.spec.sim.node.cache_bytes));
  describe_result(o, r, tr.request_count(), events, simulated_requests(w, tr));
  return o.text();
}

int run(const CliArgs& args) {
  const std::string mode = args.get("mode", "e2e");
  const std::string out_dir = args.get("out-dir", ".");
  const Workload w = make_workload(args.get("workload"),
                                   static_cast<std::uint64_t>(args.get_int("seed", 0)),
                                   args.has("smoke"), out_dir);
  JsonObject out;
  out.str("workload", args.get("workload")).str("mode", mode);
  if (mode == "e2e") {
    const double setup_ref = reference_seconds();
    std::vector<std::string> setups;
    for (int i = 0; i < kSetupSamples; ++i) setups.push_back(json_number(setup_only(w)));
    double ref = reference_seconds();
    out.raw("setups", json_array(setups)).num("setup_host_speed", host_speed(setup_ref, ref));
    // At least three repetitions; after that, start one only if it should
    // end within the budget, judged by the mean repetition so far.
    const double budget = args.get_double("seconds", 10.0);
    std::vector<std::string> reps;
    const auto t0 = Clock::now();
    for (double spent = 0.0;
         reps.size() < 3 || spent * static_cast<double>(reps.size() + 1) /
                                    static_cast<double>(reps.size()) <= budget;
         spent = seconds_between(t0, Clock::now())) {
      JsonObject rep = untraced_rep(w);
      const double next_ref = reference_seconds();
      reps.push_back(rep.num("host_speed", host_speed(ref, next_ref)).text());
      ref = next_ref;
    }
    out.raw("reps", json_array(reps));
  } else if (mode == "traced") {
    out.raw("untraced", untraced_rep(w).text()).raw("traced", traced_rep(w));
  } else if (mode == "quiet") {
    out.raw("untraced", untraced_rep(without_observers(w)).text());
  } else {
    throw Error("unknown --mode: " + mode + " (expected e2e, traced or quiet)");
  }
  out.num("peak_rss_mib", peak_rss_mib());
  std::cout << out.text() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "l2sim_perf: " << e.what() << '\n';
    return 1;
  }
}
