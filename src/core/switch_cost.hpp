// iosim: switch-cost measurement (paper Section IV-B, Fig. 5).
//
// Methodology, verbatim from the paper: run a dd-style workload (600 MB of
// zeroes per VM, four VMs on one physical machine, in parallel); measure
//   Cost(a -> b) = T(a then b, switched at half the data)
//                - (T(a alone) + T(b alone)) / 2.
// The result is a full 16x16 matrix over pair states. It is *not*
// commutative and not even zero on the diagonal (re-issuing the switch
// command quiesces the queues regardless), both of which the paper calls
// out and the heuristic must respect.
#pragma once

#include <array>
#include <cstdint>

#include "iosched/pair.hpp"
#include "virt/physical_host.hpp"

namespace iosim::core {

using iosched::kNumSchedulerPairs;
using iosched::SchedulerPair;

struct SwitchCostConfig {
  virt::HostConfig host;
  int vms = 4;
  std::int64_t dd_bytes_per_vm = 600LL * 1024 * 1024;
  std::uint64_t seed = 42;
};

class SwitchCostMatrix {
 public:
  /// Run the full measurement: 16 solo runs + 256 switched runs.
  static SwitchCostMatrix measure(const SwitchCostConfig& cfg);

  double cost_seconds(SchedulerPair from, SchedulerPair to) const {
    return cost_[static_cast<std::size_t>(from.index())]
                [static_cast<std::size_t>(to.index())];
  }
  double solo_seconds(SchedulerPair p) const {
    return solo_[static_cast<std::size_t>(p.index())];
  }

  double min_cost() const;
  double max_cost() const;
  double mean_cost() const;
  /// Mean absolute asymmetry |cost(a,b) - cost(b,a)| over a != b.
  double mean_asymmetry() const;

 private:
  std::array<std::array<double, kNumSchedulerPairs>, kNumSchedulerPairs> cost_{};
  std::array<double, kNumSchedulerPairs> solo_{};
};

/// One dd run on a fresh single-host rig with `from` installed at boot and,
/// when `to` is provided, a cluster-wide switch to `to` at half the data.
/// Returns elapsed seconds. Exposed for tests and benches.
double run_dd_experiment(const SwitchCostConfig& cfg, SchedulerPair from,
                         const SchedulerPair* to);

}  // namespace iosim::core
