// ExperimentSpec: one declarative description of an experiment — which
// workload, how many nodes, which distribution policy, how requests
// arrive, what faults strike, and where output goes — runnable against
// either evaluation engine:
//
//   run_simulation(spec)  the trace-driven DES (ClusterSimulation)
//   run_model(spec)       the analytic bound (model::TraceModel)
//   run_figure(spec, ...) both, over a node-count sweep (Figures 7-10)
//
// Benches, examples and the CLI build a spec once and hand it to whichever
// engine(s) a study needs, so simulator-vs-model comparisons are
// guaranteed to describe the same experiment.
#pragma once

#include <string>
#include <vector>

#include "l2sim/common/cli_args.hpp"
#include "l2sim/core/experiment.hpp"
#include "l2sim/trace/characterize.hpp"
#include "l2sim/trace/synthetic.hpp"

namespace l2s::core {

/// Where the workload comes from. `realize()` materializes the trace;
/// callers that sweep many configurations over one workload realize once
/// and pass the trace to the run_* overloads that accept it.
struct TraceSpec {
  enum class Kind {
    kPaper,      ///< one of the paper's calibrated traces, scaled
    kClfFile,    ///< a Common Log Format access log on disk
    kSynthetic,  ///< an explicit SyntheticSpec
  };
  Kind kind = Kind::kPaper;

  std::string paper_name = "clarknet";  ///< kPaper: calgary/clarknet/nasa/rutgers
  double scale = 1.0;                   ///< kPaper: request-count scale factor
  std::string path;                     ///< kClfFile: log path
  trace::SyntheticSpec synthetic;       ///< kSynthetic: full generator spec

  [[nodiscard]] static TraceSpec paper(std::string name, double scale = 1.0);
  [[nodiscard]] static TraceSpec clf(std::string path);
  [[nodiscard]] static TraceSpec synth(trace::SyntheticSpec spec);

  [[nodiscard]] trace::Trace realize() const;
};

/// Where results go (beyond the returned structs). The per-node load
/// timeline is SimConfig::timeline_csv_path.
struct OutputSpec {
  /// Telemetry exports ("" = off). Setting any of these force-enables
  /// sim.telemetry for the run (there would be nothing to export
  /// otherwise).
  std::string trace_json_path;     ///< Chrome trace-event JSON (Perfetto)
  std::string metrics_csv_path;    ///< scalar metrics CSV
  std::string timeseries_csv_path; ///< probe/goodput time-series CSV
  std::string spans_csv_path;      ///< sampled spans CSV

  /// Decision-log export ("" = off). Setting it force-enables sim.obs for
  /// the run, the same way the telemetry exports above enable telemetry.
  /// When trace_json_path is also set, the decision log is joined onto the
  /// Chrome trace's span tracks as instant/flow events.
  std::string decisions_csv_path;

  [[nodiscard]] bool wants_telemetry() const {
    return !trace_json_path.empty() || !metrics_csv_path.empty() ||
           !timeseries_csv_path.empty() || !spans_csv_path.empty();
  }
  [[nodiscard]] bool wants_obs() const { return !decisions_csv_path.empty(); }
};

/// Analytic-engine selection for run_model. The default keeps the legacy
/// behaviour: hit rates from the paper's z(n, F) step-function algebra
/// (model::TraceModel). Setting `cache` switches the cache level to the
/// l2s::analytic hierarchical solver — Che-approximation LRU miss curves
/// coupled to the queueing network, per-node hit rates, bottleneck and
/// (below saturation) mean response, with no measured axis anywhere. When
/// sim.arrival describes a flash crowd, diurnal swing or popularity churn,
/// the solver also produces the time-varying hit curve over the pass.
struct AnalyticSpec {
  bool cache = false;          ///< Che cache level instead of z(n, F)
  int transient_samples = 64;  ///< samples of the time-varying hit curve
};

/// The full experiment description. `sim` carries the cluster hardware,
/// arrival mode (sim.arrival), persistence (sim.persistence) and fault
/// schedule (sim.fault_plan); the fields here are what the engines need
/// beyond a SimConfig.
struct ExperimentSpec {
  std::string name;  ///< label for reports/CSV
  TraceSpec trace;
  SimConfig sim;
  PolicyKind policy = PolicyKind::kL2s;
  double set_shrink_seconds = 20.0;  ///< LARD K / L2S decay window
  double model_replication = 0.15;   ///< R for the model bound (paper: 15%)
  AnalyticSpec analytic;             ///< run_model engine selection
  OutputSpec output;
};

/// The analytic engine's answer for a spec. The fields below `hit_rate`
/// are only populated on the analytic cache path (`spec.analytic.cache`);
/// the legacy z(n, F) path leaves them at their defaults.
struct ModelResult {
  double throughput_rps = 0.0;  ///< policy's max stable throughput
  double hit_rate = 0.0;        ///< cluster-wide cache hit rate
  trace::TraceCharacteristics characteristics;

  bool analytic = false;             ///< Che cache level was used
  std::vector<double> per_node_hit;  ///< per-node hit rates (conscious split)
  double forwarded_fraction = 0.0;   ///< Q
  double served_rate_rps = 0.0;      ///< min(offered, bottleneck)
  double mean_response_seconds = 0.0;///< below saturation only, else 0
  std::string bottleneck;            ///< binding station
  int iterations = 0;                ///< hierarchical fixed-point passes
};

/// Run the spec on the DES engine. The single-argument form realizes the
/// trace from spec.trace; the two-argument form uses a pre-realized trace.
[[nodiscard]] SimResult run_simulation(const ExperimentSpec& spec);
[[nodiscard]] SimResult run_simulation(const ExperimentSpec& spec,
                                       const trace::Trace& trace);

/// Write every export the OutputSpec asks for from an already-obtained
/// result (telemetry CSV/trace files, decision-log CSV). run_simulation
/// calls this itself; callers that drive ClusterSimulation directly reuse
/// it so every path exports identically.
void export_outputs(const OutputSpec& output, const SimResult& result);

/// Run the spec on the analytic model (policy-independent bound). The model
/// describes trad (locality-oblivious) and LARD and L2S (locality-
/// conscious); any other spec.policy throws l2s::Error.
[[nodiscard]] ModelResult run_model(const ExperimentSpec& spec);
[[nodiscard]] ModelResult run_model(const ExperimentSpec& spec,
                                    const trace::Trace& trace);

/// The sweep behind one of Figures 7-10 and the Section 5.2 studies: at
/// every node count, the model bound (`run_model(spec_n, trace)`) and the
/// three simulated servers, where spec_n is `base` with `sim.nodes` = n and
/// `base.policy` is ignored. The 3 x node_counts simulations go through
/// run_parallel with `threads` (0 = the process thread budget, 1 =
/// inline); the result does not depend on it. `base.output` is not
/// exported.
[[nodiscard]] FigureSeries run_figure(const ExperimentSpec& base, const trace::Trace& trace,
                                      const std::vector<int>& node_counts,
                                      unsigned threads);

/// The cluster a `l2sim run` or `l2sim diff` command line describes, with
/// their defaults:
///
///   --nodes N (16)  --cache MB (32)  --gdsf (GDSF instead of LRU)
///   --rate R (0 = replay)  --rpc K (1 request per connection)
///   --skew S (0: no cached-DNS skew)
///   the overload flags (apply_overload_cli) and topology flags
///   (apply_topology_cli)
///   --fail NODE@SECONDS  crash NODE at SECONDS
///   --shrink SEC         LARD K / L2S decay window (20 s x scale_from_cli)
///
/// Leaves name, trace, policy and output at their defaults. Throws
/// l2s::Error on a malformed value or unknown name.
[[nodiscard]] ExperimentSpec run_spec_from_cli(const CliArgs& args);

/// `--scale S` (default 0.1), the factor a paper trace's request count is
/// scaled by. Throws l2s::Error naming --scale unless S is finite and > 0.
[[nodiscard]] double scale_from_cli(const CliArgs& args);

/// Apply the overload/chaos command-line flags to a spec (shared by the
/// l2sim CLI and any downstream driver):
///
///   --arrival stationary|flash|diurnal   arrival shape
///   --flash-at S --flash-factor F        flash-crowd step (onset, multiplier)
///   --flash-ramp S --flash-hold S        optional ramp and hold durations
///   --diurnal-period S --diurnal-amp A   sinusoidal rate modulation
///   --churn-period S --churn-stride K    popularity churn rotation
///   --chaos-seed N                       simulation seed (chaos replay handle)
///   --shedder none|static|codel|aimd     admission shedder
///   --static-cap N                       kStaticCap in-flight cap
///   --target-delay S                     CoDel-style queue-delay target
///   --retry-budget R [--retry-burst B]   retry/hedge token-bucket earn ratio
///   --hedge-delay S [--max-hedges K]     hedged attempts after S seconds
///   --brownout                           delay-triggered brownout levels
///
/// Flags not present leave the spec untouched. Throws l2s::Error on an
/// unknown --arrival or --shedder name; range validation happens later in
/// SimConfig::validate().
void apply_overload_cli(const CliArgs& args, ExperimentSpec& spec);

/// Apply the interconnect-topology command-line flags to a spec:
///
///   --topology single|rack|fattree   interconnect kind (default single)
///   --racks N                        rack-aware: number of ToR switches
///   --oversub X                      rack-aware: core oversubscription ratio
///   --fat-tree-k K                   fat-tree: switch arity (even)
///   --segment-bytes N                store-and-forward segment size
///   --flow-level                     flow-level bulk transfers (max-min fair)
///
/// Flags not present leave the spec untouched. Throws l2s::Error on an
/// unknown --topology name; geometry validation (nodes divisible into
/// racks, fat-tree capacity) happens in SimConfig::validate().
void apply_topology_cli(const CliArgs& args, ExperimentSpec& spec);

}  // namespace l2s::core
