#include "mapred/vcpu.hpp"

#include <algorithm>
#include <limits>

namespace iosim::mapred {

namespace {
constexpr double kEpsilonNs = 1.0;
}

void VCpu::run(Time cpu_time, sim::EventFn done) {
  advance(simr_.now());
  if (cpu_time <= Time::zero()) {
    // Zero-cost burst: complete on a fresh event to keep callback ordering
    // consistent with real bursts.
    simr_.after(Time::zero(), std::move(done));
    reschedule();
    return;
  }
  bursts_.push_back(Burst{static_cast<double>(cpu_time.ns()), std::move(done)});
  reschedule();
}

void VCpu::advance(Time now) {
  const double dt_ns = static_cast<double>((now - last_update_).ns());
  last_update_ = now;
  if (dt_ns <= 0.0 || bursts_.empty()) return;
  const double share = dt_ns / static_cast<double>(bursts_.size());
  for (Burst& b : bursts_) {
    b.remaining_ns -= share;
    if (b.remaining_ns < 0.0) b.remaining_ns = 0.0;
  }
  consumed_ += Time::from_ns(static_cast<std::int64_t>(dt_ns));
}

void VCpu::reschedule() {
  if (ev_ != sim::kInvalidEvent) {
    simr_.cancel(ev_);
    ev_ = sim::kInvalidEvent;
  }
  if (bursts_.empty()) return;

  double soonest_ns = std::numeric_limits<double>::infinity();
  for (const Burst& b : bursts_) {
    const double t = std::max(0.0, b.remaining_ns - kEpsilonNs) *
                     static_cast<double>(bursts_.size());
    soonest_ns = std::min(soonest_ns, t);
  }
  ev_ = simr_.after(Time::from_ns(static_cast<std::int64_t>(soonest_ns) + 1),
                    [this] { on_completion(); });
}

void VCpu::on_completion() {
  ev_ = sim::kInvalidEvent;
  advance(simr_.now());
  // Compact the survivors in place, in order; the finished bursts'
  // callbacks go to done_ in submission order.
  std::size_t kept = 0;
  for (Burst& b : bursts_) {
    if (b.remaining_ns <= kEpsilonNs) {
      done_.push_back(std::move(b.done));
    } else {
      if (&bursts_[kept] != &b) bursts_[kept] = std::move(b);
      ++kept;
    }
  }
  bursts_.erase(bursts_.begin() + static_cast<std::ptrdiff_t>(kept), bursts_.end());
  reschedule();
  // A callback may submit a burst (run() does not touch done_), but no
  // completion runs inside another: each is its own event.
  for (sim::EventFn& fn : done_) fn();
  done_.clear();
}

}  // namespace iosim::mapred
