// The engine's lifecycle event vocabulary: every event of a run (dispatch
// target, completion, terminal failure, connection close, admission
// reject or shed, brownout transition, retry, retry-budget deny, hedge,
// migration, remote fetch and the fault timeline) is one compact POD
// DecisionRecord with a kind and a cause code. The engine emits each event
// once (EngineContext::note_decision) and every statistic, the telemetry
// and the flight recorder are folds over that one stream. The records are
// pure data — emitting one schedules nothing and draws no randomness — so
// two runs that make the same decisions produce byte-identical record
// streams, which is what `l2sim diff` compares.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "l2sim/common/units.hpp"

namespace l2s::obs {

/// What kind of lifecycle event a record describes. New kinds go at the
/// end, so existing values and exported names never change.
enum class DecisionKind : std::uint8_t {
  kDispatch,        ///< dispatcher picked a target (or found none)
  kShed,            ///< overload shedder turned an arrival away
  kReject,          ///< admission buffers were full at arrival
  kBrownout,        ///< brownout level transition (detail = new level)
  kRetry,           ///< a retry attempt was scheduled (cause = why the attempt died)
  kBudgetDeny,      ///< retry budget had no token for a retry or hedge
  kHedge,           ///< a hedged (speculative) attempt was dispatched
  kComplete,        ///< request finished successfully
  kFailure,         ///< request terminally failed (deadline / retries exhausted)
  kNodeCrash,       ///< fault plan crashed a node
  kNodeRepair,      ///< fault plan repaired a node
  kNodeSuspected,   ///< failure detector suspected a node
  kNodeReadmitted,  ///< failure detector readmitted a node
  kMigrate,         ///< persistent connection handed off (node -> target)
  kRemoteFetch,     ///< back-end forwarding: node fetched from target
  kClose,           ///< connection closed (detail = requests it served)
};

/// Why the decision went the way it did. One flat enum so a record stays
/// two bytes of classification; kinds constrain which causes are sensible.
enum class DecisionCause : std::uint8_t {
  kNone,
  // Dispatch outcomes.
  kLocalService,    ///< target == entry node, serviced locally
  kForwardService,  ///< target != entry node, request handed off
  kNoPolicyTarget,  ///< policy returned no target (all candidates masked)
  // Admission shed reasons (which shedder said no).
  kShedStaticCap,
  kShedQueueDelay,
  kShedAimd,
  kShedBrownout,  ///< brownout level 2 every-other-arrival service shed
  // Admission reject reason.
  kBufferOverflow,
  // Brownout transition direction.
  kBrownoutRaise,
  kBrownoutEase,
  // Why an attempt died (cause carried into the kRetry / kBudgetDeny record).
  kEntryNodeDown,
  kServiceNodeDown,
  kPeerNodeDown,  ///< migration target or remote-fetch owner was down
  kAttemptTimeout,
  // Which budget spend was denied.
  kBudgetDeniedRetry,
  kBudgetDeniedHedge,
  // Hedge fire.
  kHedgeFired,
  // Terminal failure reasons.
  kDeadlineExpired,
  kRetriesExhausted,
};

[[nodiscard]] std::string_view to_string(DecisionKind kind);
[[nodiscard]] std::string_view to_string(DecisionCause cause);

/// One engine decision. Plain trivially-copyable data, 40 bytes: cheap to
/// ring-buffer by the hundred-thousand and trivially comparable field by
/// field when hunting the first divergence between two runs.
struct DecisionRecord {
  SimTime time = 0;             ///< simulated time of the decision
  std::uint64_t request = 0;    ///< connection / request id (0 when none exists yet)
  std::int32_t node = -1;       ///< node the decision concerns (entry node, crashed node, ...)
  std::int32_t target = -1;     ///< dispatch target / service node (-1 when n/a)
  std::int64_t detail = 0;      ///< kind-specific payload (brownout level, retry count, ...)
  std::uint32_t attempt = 0;    ///< attempt number the decision belongs to
  DecisionKind kind = DecisionKind::kDispatch;
  DecisionCause cause = DecisionCause::kNone;
  std::uint8_t pass = 0;  ///< 0 = warm-up pass, 1 = measured pass
  std::uint8_t pad = 0;

  friend bool operator==(const DecisionRecord& a, const DecisionRecord& b) {
    return a.time == b.time && a.request == b.request && a.node == b.node &&
           a.target == b.target && a.detail == b.detail && a.attempt == b.attempt &&
           a.kind == b.kind && a.cause == b.cause && a.pass == b.pass;
  }
  friend bool operator!=(const DecisionRecord& a, const DecisionRecord& b) {
    return !(a == b);
  }
};

static_assert(sizeof(DecisionRecord) == 40, "DecisionRecord is meant to stay compact");

/// Streaming consumer of decision records. `index` is the global record
/// index (0-based, counting every record ever emitted, ring capacity
/// notwithstanding), so a sink can locate a record even after the in-ring
/// copy has been overwritten. Sinks run inside event handlers: they must
/// not touch engine state, and any exception they throw aborts the run
/// (the divergence comparator uses exactly that to stop replay B early).
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;
  virtual void on_decision(std::uint64_t index, const DecisionRecord& record) = 0;
};

/// The recorder's output: the retained window of records (oldest first)
/// plus bookkeeping for how much history the ring discarded.
struct DecisionTrace {
  std::vector<DecisionRecord> records;  ///< oldest-first retained window
  std::uint64_t recorded = 0;           ///< records emitted over the whole run
  std::uint64_t dropped = 0;            ///< records the bounded ring overwrote
  std::uint64_t capacity = 0;           ///< ring capacity (0 = unbounded)

  /// Global index of records[0] (== dropped: the ring discards oldest-first).
  [[nodiscard]] std::uint64_t first_index() const { return dropped; }
};

/// FNV-1a fold of every retained record — a cheap fingerprint for
/// "byte-identical decision stream" assertions in tests and benches.
[[nodiscard]] std::uint64_t trace_digest(const DecisionTrace& trace);

}  // namespace l2s::obs
