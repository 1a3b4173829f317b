#include "l2sim/fault/runtime.hpp"

#include <utility>

#include "l2sim/common/error.hpp"

namespace l2s::fault {

FaultRuntime::FaultRuntime(des::Scheduler& sched,
                           std::vector<cluster::Node*> nodes, FaultPlan plan,
                           Rng rng)
    : sched_(sched), nodes_(std::move(nodes)), plan_(std::move(plan)), rng_(rng) {
  L2S_REQUIRE(!nodes_.empty());
  plan_.validate(static_cast<int>(nodes_.size()));
}

void FaultRuntime::arm(SimTime measure_start, Hooks hooks) {
  L2S_REQUIRE(!armed_);
  armed_ = true;
  base_ = measure_start;
  hooks_ = std::move(hooks);
  const SimTime now = sched_.now();
  // Events land at base_ + offset; anything already in the past (base_ can
  // equal now) fires on the next dispatch in submission order.
  const auto at = [&](double seconds) {
    const SimTime t = base_ + seconds_to_simtime(seconds);
    return t > now ? t - now : SimTime{0};
  };
  for (const Crash& c : plan_.crashes) {
    sched_.after(at(c.at_seconds), [this, c]() {
      cluster::Node& n = node(c.node);
      if (!n.alive()) return;  // already down (overlapping plans)
      n.fail();
      if (hooks_.on_crash) hooks_.on_crash(c.node, sched_.now());
    });
  }
  for (const Recover& r : plan_.recoveries) {
    sched_.after(at(r.at_seconds), [this, r]() {
      cluster::Node& n = node(r.node);
      if (n.alive()) return;
      n.recover();
      if (hooks_.on_recover) hooks_.on_recover(r.node, sched_.now());
    });
  }
  for (const FailSlow& s : plan_.slowdowns) {
    const auto slow_by = [this, id = s.node, disk = s.resource == Resource::kDisk](
                             double factor) {
      return [this, id, disk, factor]() {
        cluster::Node& n = node(id);
        if (disk)
          n.set_disk_slow(factor);
        else
          n.set_cpu_slow(factor);
      };
    };
    sched_.after(at(s.from_seconds), slow_by(s.factor));
    if (s.until_seconds < std::numeric_limits<double>::infinity())
      sched_.after(at(s.until_seconds), slow_by(1.0));
  }
}

net::LinkFault FaultRuntime::on_message(int src, int dst) {
  net::LinkFault f;
  if (!armed_ || plan_.message_faults.empty()) return f;
  const SimTime now = sched_.now();
  for (const MessageFault& m : plan_.message_faults) {
    if (m.src != -1 && m.src != src) continue;
    if (m.dst != -1 && m.dst != dst) continue;
    const SimTime from = base_ + seconds_to_simtime(m.from_seconds);
    if (now < from) continue;
    if (m.until_seconds < std::numeric_limits<double>::infinity() &&
        now >= base_ + seconds_to_simtime(m.until_seconds))
      continue;
    // Draws happen for every matching rule even after a drop is already
    // decided, so adding a second rule never perturbs the first rule's
    // stream of outcomes.
    if (m.loss_prob > 0.0 && rng_.next_double() < m.loss_prob) f.drop = true;
    if (m.duplicate_prob > 0.0 && rng_.next_double() < m.duplicate_prob)
      f.duplicate = true;
    if (m.extra_delay_seconds > 0.0)
      f.extra_delay += seconds_to_simtime(m.extra_delay_seconds);
  }
  if (f.drop) {
    f.duplicate = false;
    f.extra_delay = 0;
  }
  return f;
}

}  // namespace l2s::fault
