#include "l2sim/obs/decision.hpp"

namespace l2s::obs {

std::string_view to_string(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kDispatch: return "dispatch";
    case DecisionKind::kShed: return "shed";
    case DecisionKind::kReject: return "reject";
    case DecisionKind::kBrownout: return "brownout";
    case DecisionKind::kRetry: return "retry";
    case DecisionKind::kBudgetDeny: return "budget_deny";
    case DecisionKind::kHedge: return "hedge";
    case DecisionKind::kComplete: return "complete";
    case DecisionKind::kFailure: return "failure";
    case DecisionKind::kNodeCrash: return "node_crash";
    case DecisionKind::kNodeRepair: return "node_repair";
    case DecisionKind::kNodeSuspected: return "node_suspected";
    case DecisionKind::kNodeReadmitted: return "node_readmitted";
    case DecisionKind::kMigrate: return "migrate";
    case DecisionKind::kRemoteFetch: return "remote_fetch";
    case DecisionKind::kClose: return "close";
  }
  return "unknown";
}

std::string_view to_string(DecisionCause cause) {
  switch (cause) {
    case DecisionCause::kNone: return "none";
    case DecisionCause::kLocalService: return "local_service";
    case DecisionCause::kForwardService: return "forward_service";
    case DecisionCause::kNoPolicyTarget: return "no_policy_target";
    case DecisionCause::kShedStaticCap: return "static_cap";
    case DecisionCause::kShedQueueDelay: return "queue_delay";
    case DecisionCause::kShedAimd: return "aimd";
    case DecisionCause::kShedBrownout: return "brownout";
    case DecisionCause::kBufferOverflow: return "buffer_overflow";
    case DecisionCause::kBrownoutRaise: return "raise";
    case DecisionCause::kBrownoutEase: return "ease";
    case DecisionCause::kEntryNodeDown: return "entry_node_down";
    case DecisionCause::kServiceNodeDown: return "service_node_down";
    case DecisionCause::kPeerNodeDown: return "peer_node_down";
    case DecisionCause::kAttemptTimeout: return "attempt_timeout";
    case DecisionCause::kBudgetDeniedRetry: return "retry";
    case DecisionCause::kBudgetDeniedHedge: return "hedge";
    case DecisionCause::kHedgeFired: return "fired";
    case DecisionCause::kDeadlineExpired: return "deadline";
    case DecisionCause::kRetriesExhausted: return "retries_exhausted";
  }
  return "unknown";
}

std::uint64_t trace_digest(const DecisionTrace& trace) {
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = kOffset;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kPrime;
    }
  };
  fold(trace.recorded);
  fold(trace.dropped);
  for (const auto& r : trace.records) {
    fold(static_cast<std::uint64_t>(r.time));
    fold(r.request);
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.node)) << 32 |
         static_cast<std::uint32_t>(r.target));
    fold(static_cast<std::uint64_t>(r.detail));
    fold(static_cast<std::uint64_t>(r.attempt) << 32 |
         static_cast<std::uint64_t>(r.kind) << 16 |
         static_cast<std::uint64_t>(r.cause) << 8 | r.pass);
  }
  return h;
}

}  // namespace l2s::obs
