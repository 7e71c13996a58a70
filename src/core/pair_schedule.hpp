// iosim: a solution of the meta-scheduler — the per-phase pair assignment.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "iosched/pair.hpp"

namespace iosim::core {

using iosched::SchedulerPair;

/// Predicted cost of one elevator switch: a cluster-wide quiesce (drain and
/// re-init on every layer), the same for every (from, to). A first step
/// toward the paper's "general prediction model for the scheduler switch"
/// (Section VII). The online scheduler discounts candidate arms by it and
/// the fine-grained controller switches only when the predicted saving
/// exceeds it.
inline constexpr double kSwitchCostSeconds = 2.0;

/// `phases[i]` is the pair to install when phase i begins; `nullopt` is the
/// paper's "0" entry: keep the previous phase's pair, perform no switch.
/// phases[0] must be set (it is the boot configuration).
struct PairSchedule {
  std::vector<std::optional<SchedulerPair>> phases;

  static PairSchedule single(SchedulerPair p, int n_phases) {
    PairSchedule s;
    s.phases.assign(static_cast<std::size_t>(n_phases), std::nullopt);
    s.phases[0] = p;
    return s;
  }

  int count() const { return static_cast<int>(phases.size()); }

  SchedulerPair initial() const { return *phases.front(); }

  /// Pair in force during phase i (resolving no-switch entries).
  SchedulerPair effective(int i) const {
    for (int k = i; k >= 0; --k) {
      if (phases[static_cast<std::size_t>(k)].has_value()) {
        return *phases[static_cast<std::size_t>(k)];
      }
    }
    return initial();
  }

  /// Number of actual elevator switches the schedule performs at run time.
  int switches() const {
    int n = 0;
    for (int i = 1; i < count(); ++i) {
      if (phases[static_cast<std::size_t>(i)].has_value() &&
          *phases[static_cast<std::size_t>(i)] != effective(i - 1)) {
        ++n;
      }
    }
    return n;
  }

  /// "[(anticipatory, cfq) -> (anticipatory, deadline)]" etc.; no-switch
  /// entries render as "0" like the paper's solution sets.
  std::string to_string() const {
    std::string out = "[";
    for (int i = 0; i < count(); ++i) {
      if (i) out += " -> ";
      const auto& p = phases[static_cast<std::size_t>(i)];
      out += p.has_value() ? p->to_string() : std::string("0");
    }
    out += "]";
    return out;
  }

  /// Canonical key for memoization of evaluations.
  std::string key() const {
    std::string out;
    for (int i = 0; i < count(); ++i) {
      const auto& p = phases[static_cast<std::size_t>(i)];
      out += p.has_value() ? p->letters() : std::string("--");
    }
    return out;
  }
};

}  // namespace iosim::core
