#include "l2sim/des/resource.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::des {

Resource::Resource(Scheduler& sched, std::string name)
    : sched_(sched), name_(std::move(name)) {}

void Resource::submit(SimTime service, EventFn done) {
  L2S_REQUIRE(service >= 0);
  // An idle resource has an empty queue: the job starts at once.
  if (!busy_) {
    start(service, 0, kNoTag, std::move(done));
    return;
  }
  enqueue(Job{service, 0, kNoTag, std::move(done)});
}

void Resource::submit_run(SimTime service, std::uint32_t jobs, EventFn step,
                          std::uint32_t tag) {
  L2S_REQUIRE(service >= 0);
  L2S_REQUIRE(jobs > 0);
  run_jobs_waiting_ += jobs - 1;
  if (!busy_) {
    start(service, jobs - 1, tag, std::move(step));
    return;
  }
  enqueue(Job{service, jobs - 1, tag, std::move(step)});
}

void Resource::enqueue(Job&& job) {
  queue_.push_back(std::move(job));
  if (queue_.size() > peak_entries_) peak_entries_ = queue_.size();
}

bool Resource::extend(std::uint32_t tag, SimTime service) {
  L2S_REQUIRE(tag != kNoTag);
  Job* tail = !queue_.empty() ? &queue_.back() : busy_ ? &in_service_ : nullptr;
  if (tail == nullptr || tail->tag != tag || tail->service != service) return false;
  ++tail->more;
  ++run_jobs_waiting_;
  return true;
}

void Resource::start(SimTime service, std::uint32_t more, std::uint32_t tag,
                     EventFn&& step) {
  busy_ = true;
  started_ = sched_.now();
  in_service_.service = service;
  in_service_.more = more;
  in_service_.tag = tag;
  in_service_.step = std::move(step);
  sched_.after(service, [this]() { complete(); });
}

void Resource::complete() {
  busy_time_ += sched_.now() - started_;  // its service, or the part since a reset
  ++jobs_;
  if (in_service_.more > 0) {
    next_in_run();
    return;
  }
  busy_ = false;
  // The next job's completion is scheduled before this job's continuation
  // runs, so take the continuation out of the slot start() refills.
  EventFn done = std::move(in_service_.step);
  if (!queue_.empty()) {
    Job& next = queue_.front();
    start(next.service, next.more, next.tag, std::move(next.step));
    queue_.pop_front();
  }
  done();
}

void Resource::next_in_run() {
  // The run's next job starts now; its step fires in its slot.
  --in_service_.more;
  --run_jobs_waiting_;
  started_ = sched_.now();
  sched_.after(in_service_.service, [this]() { complete(); });
  in_service_.step();
}

double Resource::utilization(SimTime elapsed) const {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time()) / static_cast<double>(elapsed);
}

void Resource::reset_stats() {
  busy_time_ = 0;
  started_ = sched_.now();
  jobs_ = 0;
}

}  // namespace l2s::des
