#include "l2sim/core/experiment.hpp"

#include <utility>

#include "l2sim/common/error.hpp"
#include "l2sim/policy/consistent_hash.hpp"
#include "l2sim/policy/lard.hpp"
#include "l2sim/policy/lard_dispatcher.hpp"
#include "l2sim/policy/round_robin.hpp"
#include "l2sim/policy/traditional.hpp"

namespace l2s::core {

std::unique_ptr<policy::Policy> make_policy(PolicyKind kind, double set_shrink_seconds,
                                            policy::L2sParams l2s) {
  policy::LardParams lard;
  lard.set_shrink_seconds = set_shrink_seconds;
  switch (kind) {
    case PolicyKind::kTraditional:
      return std::make_unique<policy::TraditionalPolicy>();
    case PolicyKind::kLard:
      return std::make_unique<policy::LardPolicy>(lard);
    case PolicyKind::kL2s:
      l2s.set_shrink_seconds = set_shrink_seconds;
      return std::make_unique<policy::L2sPolicy>(l2s);
    case PolicyKind::kRoundRobin:
      return std::make_unique<policy::RoundRobinPolicy>();
    case PolicyKind::kLardDispatcher:
      return std::make_unique<policy::LardDispatcherPolicy>(lard);
    case PolicyKind::kConsistentHash:
      return std::make_unique<policy::ConsistentHashPolicy>();
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
    case PolicyKind::kRoundRobin:
      return "rr-dns";
    case PolicyKind::kLardDispatcher:
      return "LARD-dispatcher";
    case PolicyKind::kConsistentHash:
      return "consistent-hash";
  }
  return "?";
}

PolicyKind policy_kind_by_name(const std::string& name) {
  static constexpr std::pair<const char*, PolicyKind> kNames[] = {
      {"l2s", PolicyKind::kL2s},
      {"lard", PolicyKind::kLard},
      {"trad", PolicyKind::kTraditional},
      {"traditional", PolicyKind::kTraditional},
      {"rr", PolicyKind::kRoundRobin},
      {"rr-dns", PolicyKind::kRoundRobin},
  };
  for (const auto& [spelling, kind] : kNames)
    if (name == spelling) return kind;
  throw_error("unknown policy: " + name + " (expected l2s, lard, trad or rr)");
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
