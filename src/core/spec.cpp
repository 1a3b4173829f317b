#include "l2sim/core/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "l2sim/analytic/hierarchical.hpp"
#include "l2sim/common/error.hpp"
#include "l2sim/core/parallel.hpp"
#include "l2sim/model/trace_model.hpp"
#include "l2sim/obs/exporters.hpp"
#include "l2sim/telemetry/exporters.hpp"
#include "l2sim/trace/clf_reader.hpp"

namespace l2s::core {

TraceSpec TraceSpec::paper(std::string name, double scale) {
  TraceSpec spec;
  spec.kind = Kind::kPaper;
  spec.paper_name = std::move(name);
  spec.scale = scale;
  return spec;
}

TraceSpec TraceSpec::clf(std::string path) {
  TraceSpec spec;
  spec.kind = Kind::kClfFile;
  spec.path = std::move(path);
  return spec;
}

TraceSpec TraceSpec::synth(trace::SyntheticSpec synthetic) {
  TraceSpec spec;
  spec.kind = Kind::kSynthetic;
  spec.synthetic = std::move(synthetic);
  return spec;
}

trace::Trace TraceSpec::realize() const {
  switch (kind) {
    case Kind::kPaper:
      return trace::generate_scaled(trace::paper_trace_spec(paper_name), scale);
    case Kind::kClfFile: {
      std::ifstream in(path);
      if (!in) throw_error("TraceSpec: cannot open trace file: " + path);
      return trace::read_clf(in, path);
    }
    case Kind::kSynthetic:
      return trace::generate(synthetic);
  }
  throw_error("TraceSpec: unknown trace kind");
}

SimResult run_simulation(const ExperimentSpec& spec) {
  return run_simulation(spec, spec.trace.realize());
}

SimResult run_simulation(const ExperimentSpec& spec, const trace::Trace& trace) {
  SimConfig sim = spec.sim;
  if (spec.output.wants_telemetry()) sim.telemetry.enabled = true;
  if (spec.output.wants_obs()) sim.obs.enabled = true;
  SimResult result = run_once(trace, sim, spec.policy, spec.set_shrink_seconds);
  export_outputs(spec.output, result);
  return result;
}

void export_outputs(const OutputSpec& output, const SimResult& result) {
  if (result.telemetry != nullptr) {
    const telemetry::Snapshot& snap = *result.telemetry;
    if (!output.trace_json_path.empty()) {
      // With a decision log in hand, join it onto the span tracks —
      // decisions render as instant/flow events on the same timeline.
      if (result.decisions != nullptr) {
        obs::export_chrome_trace_with_decisions(output.trace_json_path, snap,
                                                *result.decisions);
      } else {
        telemetry::export_chrome_trace(output.trace_json_path, snap);
      }
    }
    if (!output.metrics_csv_path.empty())
      telemetry::export_metrics_csv(output.metrics_csv_path, snap);
    if (!output.timeseries_csv_path.empty())
      telemetry::export_timeseries_csv(output.timeseries_csv_path, snap);
    if (!output.spans_csv_path.empty())
      telemetry::export_spans_csv(output.spans_csv_path, snap);
  }
  if (result.decisions != nullptr && !output.decisions_csv_path.empty())
    obs::export_decisions_csv(output.decisions_csv_path, *result.decisions);
}

ModelResult run_model(const ExperimentSpec& spec) {
  return run_model(spec, spec.trace.realize());
}

ModelResult run_model(const ExperimentSpec& spec, const trace::Trace& trace) {
  if (std::ranges::find(all_policies(), spec.policy) == all_policies().end())
    throw_error(std::string("run_model: the analytic model describes l2s, lard and trad, not ") +
                policy_kind_name(spec.policy));
  // The analytic model solves the paper's Figure 2 queueing network: every
  // node behind one crossbar switch. Rack-aware and fat-tree interconnects
  // change the per-station demands in ways the model does not capture, so
  // specs carrying one are DES-only — run_simulation handles them.
  if (spec.sim.topology.kind != net::TopologyKind::kSingleSwitch)
    throw_error(
        "run_model: the analytic model covers only the single-switch "
        "topology (Figure 2); rack-aware and fat-tree interconnects are "
        "DES-only — use run_simulation, or drop --topology for the model");

  ModelResult r;
  r.characteristics = trace::characterize(trace);
  model::ModelParams params;
  params.cache_bytes = spec.sim.node.cache_bytes;
  params.replication = spec.model_replication;
  params.alpha = r.characteristics.alpha;

  if (spec.analytic.cache) {
    // Analytic fast path: Che cache level coupled to the queueing network
    // (l2s::analytic) — per-node hit rates from first principles, no
    // measured axis.
    analytic::HierarchicalParams hp;
    hp.model = params;
    hp.model.nodes = spec.sim.nodes;
    hp.workload = r.characteristics.to_workload_stats();
    hp.conscious = spec.policy != PolicyKind::kTraditional;
    hp.offered_rate_rps = spec.sim.arrival.open_loop_rate;
    hp.arrival = spec.sim.arrival;
    // The transient level covers the measured pass; for an open-loop spec
    // that is the time the trace takes to arrive at the nominal rate.
    if (spec.sim.arrival.open_loop_rate > 0.0)
      hp.horizon_seconds = static_cast<double>(r.characteristics.requests) /
                           spec.sim.arrival.open_loop_rate;
    hp.transient_samples = spec.analytic.transient_samples;
    const analytic::HierarchicalResult hr = analytic::solve_hierarchical(hp);
    r.analytic = true;
    r.throughput_rps = hr.max_throughput_rps;
    r.hit_rate = hr.hit_rate;
    r.per_node_hit = hr.per_node_hit;
    r.forwarded_fraction = hr.forwarded_fraction;
    r.served_rate_rps = hr.served_rate_rps;
    r.mean_response_seconds = hr.mean_response_seconds;
    r.bottleneck = hr.bottleneck;
    r.iterations = hr.iterations;
    return r;
  }

  const model::TraceModel tm(params, r.characteristics.to_workload_stats());
  r.throughput_rps = tm.bound(spec.sim.nodes).conscious.throughput;
  r.hit_rate = tm.conscious_hit_rate(spec.sim.nodes);
  return r;
}

FigureSeries run_figure(const ExperimentSpec& base, const trace::Trace& trace,
                        const std::vector<int>& node_counts, unsigned threads) {
  FigureSeries fig;
  fig.trace_name = trace.name();
  fig.node_counts = node_counts;
  std::vector<SimJob> jobs;
  for (const int nodes : node_counts) {
    ExperimentSpec spec = base;
    spec.sim.nodes = nodes;
    const ModelResult model = run_model(spec, trace);
    fig.characteristics = model.characteristics;
    fig.model_rps.push_back(model.throughput_rps);
    for (const PolicyKind kind : {PolicyKind::kL2s, PolicyKind::kLard, PolicyKind::kTraditional})
      jobs.push_back({.trace = &trace,
                      .sim = spec.sim,
                      .kind = kind,
                      .set_shrink_seconds = spec.set_shrink_seconds});
  }
  auto results = run_parallel(jobs, threads);
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    fig.l2s.push_back(std::move(results[3 * i]));
    fig.lard.push_back(std::move(results[3 * i + 1]));
    fig.traditional.push_back(std::move(results[3 * i + 2]));
  }
  return fig;
}

ExperimentSpec run_spec_from_cli(const CliArgs& args) {
  ExperimentSpec spec;
  SimConfig& cfg = spec.sim;
  cfg.nodes = args.get_int("nodes", 16);
  cfg.node.cache_bytes = static_cast<Bytes>(
      args.get_double("cache", 32.0) * static_cast<double>(kMiB));
  if (args.has("gdsf")) cfg.node.cache_policy = cluster::CachePolicy::kGdsf;
  cfg.arrival.open_loop_rate = args.get_double("rate", 0.0);
  cfg.persistence.mean_requests_per_connection = args.get_double("rpc", 1.0);
  cfg.arrival.dns_entry_skew = args.get_double("skew", 0.0);
  apply_overload_cli(args, spec);
  apply_topology_cli(args, spec);
  if (args.has("fail")) {
    const auto [node, at] = args.get_int_at_double("fail");
    cfg.fault_plan.crashes.push_back({node, at});
  }
  spec.set_shrink_seconds = args.get_double("shrink", 20.0 * scale_from_cli(args));
  return spec;
}

double scale_from_cli(const CliArgs& args) {
  const double scale = args.get_double("scale", 0.1);
  if (!std::isfinite(scale) || scale <= 0.0)
    throw_error("--scale must be a finite number > 0, got " + args.get("scale"));
  return scale;
}

void apply_overload_cli(const CliArgs& args, ExperimentSpec& spec) {
  ArrivalConfig& arrival = spec.sim.arrival;
  if (args.has("arrival")) {
    const std::string shape = args.get("arrival");
    if (shape == "stationary") arrival.shape = ArrivalShape::kStationary;
    else if (shape == "flash") arrival.shape = ArrivalShape::kFlashCrowd;
    else if (shape == "diurnal") arrival.shape = ArrivalShape::kDiurnal;
    else
      throw_error("--arrival: unknown shape '" + shape +
                  "' (expected stationary, flash or diurnal)");
  }
  if (args.has("flash-at")) arrival.flash_at_seconds = args.get_double("flash-at", 0.0);
  if (args.has("flash-factor"))
    arrival.flash_factor = args.get_double("flash-factor", 3.0);
  if (args.has("flash-ramp"))
    arrival.flash_ramp_seconds = args.get_double("flash-ramp", 0.0);
  if (args.has("flash-hold"))
    arrival.flash_hold_seconds = args.get_double("flash-hold", 0.0);
  if (args.has("diurnal-period"))
    arrival.diurnal_period_seconds = args.get_double("diurnal-period", 10.0);
  if (args.has("diurnal-amp"))
    arrival.diurnal_amplitude = args.get_double("diurnal-amp", 0.5);
  if (args.has("churn-period"))
    arrival.churn_period_seconds = args.get_double("churn-period", 0.0);
  if (args.has("churn-stride"))
    arrival.churn_stride = static_cast<std::uint64_t>(args.get_int("churn-stride", 0));
  if (args.has("chaos-seed"))
    spec.sim.seed = static_cast<std::uint64_t>(args.get_int("chaos-seed", 0));

  OverloadConfig& ov = spec.sim.overload;
  if (args.has("shedder")) {
    const std::string shedder = args.get("shedder");
    if (shedder == "none") ov.shedder = ShedderKind::kNone;
    else if (shedder == "static") ov.shedder = ShedderKind::kStaticCap;
    else if (shedder == "codel") ov.shedder = ShedderKind::kQueueDelay;
    else if (shedder == "aimd") ov.shedder = ShedderKind::kAimd;
    else
      throw_error("--shedder: unknown kind '" + shedder +
                  "' (expected none, static, codel or aimd)");
  }
  if (args.has("static-cap"))
    ov.static_cap = static_cast<std::uint64_t>(args.get_int("static-cap", 0));
  if (args.has("target-delay"))
    ov.target_delay_seconds = args.get_double("target-delay", 0.05);
  if (args.has("retry-budget"))
    ov.retry_budget_ratio = args.get_double("retry-budget", -1.0);
  if (args.has("retry-burst"))
    ov.retry_budget_burst = args.get_double("retry-burst", 16.0);
  if (args.has("hedge-delay"))
    ov.hedge_delay_seconds = args.get_double("hedge-delay", 0.0);
  if (args.has("max-hedges")) ov.max_hedges = args.get_int("max-hedges", 1);
  if (args.has("brownout")) ov.brownout = true;
}

void apply_topology_cli(const CliArgs& args, ExperimentSpec& spec) {
  net::TopologyConfig& topo = spec.sim.topology;
  if (args.has("topology")) {
    const std::string kind = args.get("topology");
    if (kind == "single") topo.kind = net::TopologyKind::kSingleSwitch;
    else if (kind == "rack") topo.kind = net::TopologyKind::kRackAware;
    else if (kind == "fattree") topo.kind = net::TopologyKind::kFatTree;
    else
      throw_error("--topology: unknown kind '" + kind +
                  "' (expected single, rack or fattree)");
  }
  if (args.has("racks")) topo.racks = args.get_int("racks", 4);
  if (args.has("oversub")) topo.oversubscription = args.get_double("oversub", 4.0);
  if (args.has("fat-tree-k")) topo.fat_tree_k = args.get_int("fat-tree-k", 4);
  if (args.has("segment-bytes"))
    topo.segment_bytes = static_cast<Bytes>(args.get_int("segment-bytes", 16 * 1024));
  if (args.has("flow-level")) topo.flow_level = true;
}

}  // namespace l2s::core
