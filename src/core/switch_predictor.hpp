// iosim: analytic switch-cost gate (a first step toward the paper's "general
// prediction model for the scheduler switch").
//
// Every transition is charged one cluster-wide quiesce estimate (drain +
// re-init on every layer). The fine-grained controller consults it to gate
// switches: only switch when the predicted saving over the remaining
// horizon exceeds the predicted cost. The online scheduler discounts
// candidate arms by the same cost.
#pragma once

#include "iosched/pair.hpp"
#include "sim/time.hpp"

namespace iosim::core {

class SwitchPredictor {
 public:
  explicit SwitchPredictor(double base_cost_seconds = 2.0)
      : cost_seconds_(base_cost_seconds) {}

  double predict_seconds(iosched::SchedulerPair /*from*/,
                         iosched::SchedulerPair /*to*/) const {
    return cost_seconds_;
  }

  /// Gate: is a switch worth it if it saves `rate_gain` (fraction, e.g.
  /// 0.08 for 8%) over `horizon` of remaining work?
  bool worthwhile(iosched::SchedulerPair from, iosched::SchedulerPair to,
                  double rate_gain, sim::Time horizon) const {
    return rate_gain * horizon.sec() > predict_seconds(from, to);
  }

 private:
  double cost_seconds_;
};

}  // namespace iosim::core
