// iosim: per-VM vCPU with processor sharing.
//
// Each DomU in the paper's setup has one VCPU pinned to its own physical
// core, so there is no cross-VM CPU contention — but the two map/reduce
// tasks *inside* a VM share that single vCPU. Bursts submitted here receive
// an equal share of the processor (fluid approximation of the guest kernel
// scheduler), recomputed whenever a burst starts or finishes.
//
// A burst costs no allocation once the VM has had its peak number of bursts
// in flight: bursts sit in a flat vector in submission order (appended, and
// compacted in place as they finish), callbacks are inline `sim::EventFn`s,
// and the completion handler moves finished callbacks into a member scratch
// list. tests/mapred/legacy_vcpu.hpp keeps the id-keyed map version as the
// reference the differential oracle compares against.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"

namespace iosim::mapred {

using sim::Time;

class VCpu {
 public:
  explicit VCpu(sim::Simulator& simr) : simr_(simr), last_update_(simr.now()) {}
  VCpu(const VCpu&) = delete;
  VCpu& operator=(const VCpu&) = delete;

  /// Run a burst needing `cpu_time` of dedicated-CPU work; `done` fires when
  /// it has accumulated that much share.
  void run(Time cpu_time, sim::EventFn done);

  /// Bursts currently sharing the vCPU.
  std::size_t active() const { return bursts_.size(); }

  /// Total CPU time consumed so far (for utilization accounting).
  Time consumed() const { return consumed_; }

 private:
  struct Burst {
    double remaining_ns;
    sim::EventFn done;
  };

  void advance(Time now);
  void reschedule();
  void on_completion();

  sim::Simulator& simr_;
  Time last_update_;
  /// Active bursts in submission order; bursts that finish at one instant
  /// fire their callbacks in this order.
  std::vector<Burst> bursts_;
  /// Callbacks of the bursts the running completion finished.
  std::vector<sim::EventFn> done_;
  sim::EventId ev_ = sim::kInvalidEvent;
  Time consumed_;
};

}  // namespace iosim::mapred
