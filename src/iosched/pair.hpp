// iosim: the paper's "disk pair schedulers" — (VMM-level, VM-level).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "iosched/scheduler.hpp"

namespace iosim::iosched {

/// A pair of disciplines: one in the hypervisor (Dom0), one in every guest.
/// The paper writes these as (scheduler in VMM, scheduler in VMs).
struct SchedulerPair {
  SchedulerKind vmm = SchedulerKind::kCfq;
  SchedulerKind guest = SchedulerKind::kCfq;

  bool operator==(const SchedulerPair&) const = default;

  /// Dense index in [0, 16): vmm * 4 + guest. Used for matrices and sweeps.
  int index() const {
    return static_cast<int>(vmm) * kNumSchedulerKinds + static_cast<int>(guest);
  }
  static SchedulerPair from_index(int i) {
    return {static_cast<SchedulerKind>(i / kNumSchedulerKinds),
            static_cast<SchedulerKind>(i % kNumSchedulerKinds)};
  }

  /// "(anticipatory, deadline)" — the paper's notation.
  std::string to_string() const {
    return std::string("(") + iosched::to_string(vmm) + ", " +
           iosched::to_string(guest) + ")";
  }
  /// Two-letter form used on the paper's Fig. 5 axes: "ad".
  std::string letters() const {
    return std::string{to_letter(vmm)} + to_letter(guest);
  }
  /// Inverse of letters(): exactly two of n/d/a/c (either case), VMM first;
  /// nullopt otherwise.
  static std::optional<SchedulerPair> from_letters(std::string_view code);
};

inline constexpr int kNumSchedulerPairs = kNumSchedulerKinds * kNumSchedulerKinds;

/// All 16 pairs in dense-index order.
inline std::array<SchedulerPair, kNumSchedulerPairs> all_scheduler_pairs() {
  std::array<SchedulerPair, kNumSchedulerPairs> out{};
  for (int i = 0; i < kNumSchedulerPairs; ++i) out[static_cast<std::size_t>(i)] = SchedulerPair::from_index(i);
  return out;
}

/// The Linux / Xen default on the paper's testbed.
inline constexpr SchedulerPair kDefaultPair{SchedulerKind::kCfq, SchedulerKind::kCfq};

}  // namespace iosim::iosched
