#include "l2sim/core/experiment.hpp"

#include "l2sim/common/error.hpp"
#include "l2sim/policy/l2s.hpp"
#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/traditional.hpp"

namespace l2s::core {

std::unique_ptr<policy::Policy> make_policy(PolicyKind kind, double set_shrink_seconds) {
  switch (kind) {
    case PolicyKind::kTraditional:
      return std::make_unique<policy::TraditionalPolicy>();
    case PolicyKind::kLard: {
      policy::LardParams params;
      params.set_shrink_seconds = set_shrink_seconds;
      return std::make_unique<policy::LardPolicy>(params);
    }
    case PolicyKind::kL2s: {
      policy::L2sParams params;
      params.set_shrink_seconds = set_shrink_seconds;
      return std::make_unique<policy::L2sPolicy>(params);
    }
  }
  throw_error("make_policy: unknown policy kind");
}

const char* policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kTraditional:
      return "trad";
    case PolicyKind::kLard:
      return "LARD";
    case PolicyKind::kL2s:
      return "L2S";
  }
  return "?";
}

const std::vector<PolicyKind>& all_policies() {
  static const std::vector<PolicyKind> kinds = {PolicyKind::kL2s, PolicyKind::kLard,
                                                PolicyKind::kTraditional};
  return kinds;
}

SimResult run_once(const trace::Trace& trace, SimConfig sim, PolicyKind kind,
                   double set_shrink_seconds) {
  ClusterSimulation simulation(sim, trace, make_policy(kind, set_shrink_seconds));
  return simulation.run();
}

}  // namespace l2s::core
