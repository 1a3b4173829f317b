// AdmissionController: the bounded in-flight window in front of the
// cluster (router + NIC buffer space), plus the drop accounting for
// arrivals that find it full. Wraps the saturation Injector: one window
// is opened per simulation pass and drained before the pass ends.
#pragma once

#include <cstdint>
#include <memory>

#include "l2sim/cluster/injector.hpp"
#include "l2sim/core/engine/context.hpp"

namespace l2s::core::engine {

class AdmissionController {
 public:
  explicit AdmissionController(EngineContext& ctx) : ctx_(ctx) {}

  /// Open a fresh admission window over the trace for one pass
  /// (nodes * admission.buffer_slots_per_node slots).
  void open();

  /// Saturation replay: set the injection callback and fill the window;
  /// every completion then refills it from the trace cursor.
  void begin_replay(cluster::Injector::InjectFn inject);

  /// Open-loop admission: occupy a slot and hand out the next request if
  /// both a slot and a request are available.
  [[nodiscard]] bool try_admit(std::uint64_t& seq, trace::Request& request);

  /// Take the next trace request without occupying a new slot (persistent
  /// connections pulling further requests onto an admitted connection).
  [[nodiscard]] bool try_take(std::uint64_t& seq, trace::Request& request);

  /// An admitted request finished (served or failed): free its slot, which
  /// under saturation replay synchronously injects the next request.
  void on_complete();

  /// Free a slot after `hold` (a failed client holds its slot until its
  /// timeout expires); hold == 0 frees it immediately.
  void release_after(SimTime hold);

  /// An open-loop arrival found the window full: the request it would have
  /// carried is consumed from the trace and counted as rejected
  /// (finite-buffer semantics above saturation).
  void reject_overflow();

  /// The overload shedder turned an open-loop arrival away before it could
  /// occupy a slot: consume its request from the trace and count it under
  /// SimResult::failed_shed (the deliberate-drop bucket, distinct from the
  /// buffer-overflow reject above).
  void shed_arrival();

  /// A window has been opened for the current pass.
  [[nodiscard]] bool active() const { return injector_ != nullptr; }
  /// The trace cursor has run off the end.
  [[nodiscard]] bool exhausted() const { return injector_->exhausted(); }
  [[nodiscard]] std::uint64_t in_flight() const { return injector_->in_flight(); }
  /// Trace exhausted and every slot returned: the pass is over.
  [[nodiscard]] bool drained() const {
    return injector_->exhausted() && injector_->in_flight() == 0;
  }

 private:
  EngineContext& ctx_;
  std::unique_ptr<cluster::Injector> injector_;
};

}  // namespace l2s::core::engine
