// Single-server FIFO resource: the building block for CPUs, disks, NICs
// and the router. Jobs queue in arrival order; the resource tracks busy
// time (for utilization/idle-time reports) and queue statistics. Busy
// time runs with the clock: it counts the elapsed part of the job in
// service, so a sampler that differentiates it per window sees each
// window's own share of a job longer than the window.
//
// A queue entry is a run: k jobs with one service time and one step
// callable that fires after each of them. A plain submit is a run of one
// whose step is its continuation. A run lets an owner queue k identical
// jobs (a broadcast's N-1 sends, or the deliveries waiting in a
// receiver's inbox) as one entry; every job still completes at the time
// it would as a single submit, and queue_length(), jobs_completed() and
// busy_time() count jobs, not entries. A run its owner tagged can grow by
// one job of its own service time while it is the resource's tail. Runs
// that share a tag must have interchangeable steps: extend() grows
// whichever of them is the tail.
//
// The resource owns the entry in service: its step and service time sit
// in a member slot and the completion event captures only `this`, so the
// event fits InlineEvent's buffer whatever the caller's step captured. A
// run's step fires in place in that slot after every job but its last;
// the last job's step is moved out first, since the next entry starts in
// the slot before it fires.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "l2sim/des/scheduler.hpp"

namespace l2s::des {

class Resource {
 public:
  /// The tag of a run no one may extend (every plain submit).
  static constexpr std::uint32_t kNoTag = 0;

  Resource(Scheduler& sched, std::string name);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Enqueue a job needing `service` time; `done` fires at completion.
  void submit(SimTime service, EventFn done);

  /// Enqueue a run of `jobs` jobs needing `service` time each; `step`
  /// fires after each of them. The next job's completion is scheduled
  /// before the step fires, so a step that submits here queues behind the
  /// rest of the run. While the run is the tail of this resource (queued
  /// or in service) extend(tag, service) adds a job to it, unless `tag` is
  /// kNoTag. A tag names a kind of step: runs carrying one tag must have
  /// steps that may fire in each other's place.
  void submit_run(SimTime service, std::uint32_t jobs, EventFn step,
                  std::uint32_t tag = kNoTag);

  /// Add one job to the tail entry if it is a run tagged `tag` whose jobs
  /// need `service` time (queued or in service). Returns false, changing
  /// nothing, otherwise.
  bool extend(std::uint32_t tag, SimTime service);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool busy() const { return busy_; }
  /// Jobs waiting behind the one in service.
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + static_cast<std::size_t>(run_jobs_waiting_);
  }
  [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_; }
  /// The most entries (runs, whatever their job counts) that ever waited
  /// behind the one in service; reset_stats() leaves it alone.
  [[nodiscard]] std::size_t peak_queue_entries() const { return peak_entries_; }
  /// Service given since the last reset_stats(), up to now: the jobs
  /// completed and the elapsed part of the one in service.
  [[nodiscard]] SimTime busy_time() const {
    return busy_ ? busy_time_ + (sched_.now() - started_) : busy_time_;
  }

  /// Fraction of [0, elapsed] the server was busy.
  [[nodiscard]] double utilization(SimTime elapsed) const;

  /// Zero the accumulated statistics (measurement starts after warm-up);
  /// in-flight work is unaffected, and only its service after the reset
  /// counts.
  void reset_stats();

 private:
  struct Job {
    SimTime service = 0;
    std::uint32_t more = 0;      ///< jobs of the run after the first (in service: after the current)
    std::uint32_t tag = kNoTag;  ///< who may extend the run
    EventFn step;
  };

  void start(SimTime service, std::uint32_t more, std::uint32_t tag, EventFn&& step);
  void enqueue(Job&& job);
  void complete();
  void next_in_run();  ///< complete()'s path for a run with jobs left

  Scheduler& sched_;
  std::string name_;
  std::deque<Job> queue_;
  Job in_service_;  ///< the entry whose job is in service
  bool busy_ = false;
  /// Jobs waiting inside runs beyond each queue entry's first: the `more`
  /// of every queued run and of the one in service. queue_length() adds
  /// the entries themselves.
  std::uint64_t run_jobs_waiting_ = 0;
  std::size_t peak_entries_ = 0;
  SimTime busy_time_ = 0;  ///< service of the jobs completed since the reset
  SimTime started_ = 0;    ///< when the job in service started (or the reset)
  std::uint64_t jobs_ = 0;
};

}  // namespace l2s::des
