// The three simulated servers, one simulation of one of them, and the
// shape of a node-count sweep over all three plus the model bound — the
// structure of Figures 7-10 and of the miss-rate / idle-time / forwarding
// studies (core::run_figure in spec.hpp runs it).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "l2sim/core/simulation.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/trace/characterize.hpp"

namespace l2s::core {

/// The paper's three servers, then the baselines the studies set beside
/// them: Section 2's round-robin DNS server, LARD with a dispatcher
/// (Related Work [4]) and consistent hashing.
enum class PolicyKind {
  kTraditional,
  kLard,
  kL2s,
  kRoundRobin,
  kLardDispatcher,
  kConsistentHash,
};

/// `set_shrink_seconds` is LARD's K and L2S's server-set decay window
/// (paper value: 20 s). Studies that replay truncated traces scale it down
/// proportionally so replication decays as it would over a full-length run.
/// `l2s` sets L2S's other parameters; its own set_shrink_seconds is
/// replaced by `set_shrink_seconds`.
[[nodiscard]] std::unique_ptr<policy::Policy> make_policy(PolicyKind kind,
                                                          double set_shrink_seconds = 20.0,
                                                          policy::L2sParams l2s = {});
/// The name reports print: "trad", "LARD", "L2S", "rr-dns", ...
[[nodiscard]] const char* policy_kind_name(PolicyKind kind);
/// The kind a `--policy` value names: l2s, lard, trad (or traditional), rr
/// (or rr-dns). Throws l2s::Error on any other name.
[[nodiscard]] PolicyKind policy_kind_by_name(const std::string& name);

/// All simulated policies, in the order the paper's legends list them.
[[nodiscard]] const std::vector<PolicyKind>& all_policies();

/// The node counts Figures 7-10 sweep.
inline const std::vector<int> kFigureNodeCounts = {1, 2, 4, 8, 12, 16};

/// One trace's full figure: per node count, the model bound and the three
/// simulated servers' results.
struct FigureSeries {
  std::string trace_name;
  trace::TraceCharacteristics characteristics;
  std::vector<int> node_counts;
  std::vector<double> model_rps;
  std::vector<SimResult> l2s;
  std::vector<SimResult> lard;
  std::vector<SimResult> traditional;
};

/// Run one simulation.
[[nodiscard]] SimResult run_once(const trace::Trace& trace, SimConfig sim, PolicyKind kind,
                                 double set_shrink_seconds = 20.0);

}  // namespace l2s::core
