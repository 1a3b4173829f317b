#include "l2sim/des/resource.hpp"

#include "l2sim/common/error.hpp"

namespace l2s::des {

Resource::Resource(Scheduler& sched, std::string name)
    : sched_(sched), name_(std::move(name)) {}

void Resource::submit(SimTime service, EventFn done) {
  L2S_REQUIRE(service >= 0);
  // An idle resource has an empty queue: the job starts at once.
  if (!busy_) {
    start(service, std::move(done));
    return;
  }
  queue_.push_back(Job{service, std::move(done)});
}

void Resource::start(SimTime service, EventFn&& done) {
  busy_ = true;
  in_service_time_ = service;
  in_service_done_ = std::move(done);
  sched_.after(service, [this]() { complete(); });
}

void Resource::complete() {
  busy_time_ += in_service_time_;
  ++jobs_;
  busy_ = false;
  // The next job's completion is scheduled before this job's continuation
  // runs, so take the continuation out of the slot start() refills.
  EventFn done = std::move(in_service_done_);
  if (!queue_.empty()) {
    Job& next = queue_.front();
    start(next.service, std::move(next.done));
    queue_.pop_front();
  }
  done();
}

double Resource::utilization(SimTime elapsed) const {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

void Resource::reset_stats() {
  busy_time_ = 0;
  jobs_ = 0;
}

}  // namespace l2s::des
