// Test-only reference model: mapred::VCpu as it was before bursts moved to
// a flat vector — an id-keyed std::map of bursts with std::function
// callbacks and a fresh vector of finished callbacks per completion. The
// differential oracle (vcpu_oracle_test.cpp) runs it next to the production
// VCpu and requires the same completions, in the same order, at the same
// nanosecond.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "sim/simulator.hpp"

namespace iosim::mapred::legacy {

using sim::Time;

class VCpu {
 public:
  explicit VCpu(sim::Simulator& simr) : simr_(simr), last_update_(simr.now()) {}
  VCpu(const VCpu&) = delete;
  VCpu& operator=(const VCpu&) = delete;

  void run(Time cpu_time, std::function<void()> done) {
    advance(simr_.now());
    if (cpu_time <= Time::zero()) {
      simr_.after(Time::zero(), std::move(done));
      reschedule();
      return;
    }
    bursts_.emplace(next_id_++,
                    Burst{static_cast<double>(cpu_time.ns()), std::move(done)});
    reschedule();
  }

  std::size_t active() const { return bursts_.size(); }
  Time consumed() const { return consumed_; }

 private:
  static constexpr double kEpsilonNs = 1.0;

  struct Burst {
    double remaining_ns;
    std::function<void()> done;
  };

  void advance(Time now) {
    const double dt_ns = static_cast<double>((now - last_update_).ns());
    last_update_ = now;
    if (dt_ns <= 0.0 || bursts_.empty()) return;
    const double share = dt_ns / static_cast<double>(bursts_.size());
    for (auto& [id, b] : bursts_) {
      (void)id;
      b.remaining_ns -= share;
      if (b.remaining_ns < 0.0) b.remaining_ns = 0.0;
    }
    consumed_ += Time::from_ns(static_cast<std::int64_t>(dt_ns));
  }

  void reschedule() {
    if (ev_ != sim::kInvalidEvent) {
      simr_.cancel(ev_);
      ev_ = sim::kInvalidEvent;
    }
    if (bursts_.empty()) return;

    double soonest_ns = std::numeric_limits<double>::infinity();
    for (const auto& [id, b] : bursts_) {
      (void)id;
      const double t = std::max(0.0, b.remaining_ns - kEpsilonNs) *
                       static_cast<double>(bursts_.size());
      soonest_ns = std::min(soonest_ns, t);
    }
    ev_ = simr_.after(Time::from_ns(static_cast<std::int64_t>(soonest_ns) + 1), [this] {
      ev_ = sim::kInvalidEvent;
      advance(simr_.now());
      std::vector<std::function<void()>> done;
      for (auto it = bursts_.begin(); it != bursts_.end();) {
        if (it->second.remaining_ns <= kEpsilonNs) {
          done.push_back(std::move(it->second.done));
          it = bursts_.erase(it);
        } else {
          ++it;
        }
      }
      reschedule();
      for (auto& fn : done) fn();
    });
  }

  sim::Simulator& simr_;
  Time last_update_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Burst> bursts_;
  sim::EventId ev_ = sim::kInvalidEvent;
  Time consumed_;
};

}  // namespace iosim::mapred::legacy
