// iosim: the runtime half of fault injection.
//
// A FaultInjector replays a FaultPlan against one simulator. Consumers poll
// it at their natural decision points — the disk asks before servicing a
// request, the cluster asks before applying an elevator switch, the job asks
// whether a VM is up — so the injector itself stays passive except for VM
// outage begin/end events, which it schedules so registered listeners (the
// JobTracker) hear about them.
//
// Determinism: all randomness comes from a private xoshiro RNG seeded at
// construction, and draws happen only while a probabilistic spec's window is
// active. An empty plan consumes no randomness and changes no behavior, so
// fault-free runs stay bit-identical to a build without the injector wired.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace iosim::fault {

class FaultInjector {
 public:
  /// The topology pair (n_vms, vms_per_host) lets kHostCrash expand into
  /// per-VM death events; both default to 0 for callers that never feed the
  /// injector host-level specs (unit tests driving disk faults directly).
  FaultInjector(sim::Simulator& simr, FaultPlan plan, std::uint64_t seed,
                int n_vms = 0, int vms_per_host = 0);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return !plan_.specs.empty(); }

  // ---- disk level (polled by DiskDevice) ----

  /// Service time after fail-slow inflation for `host`'s disk; active
  /// fail-slow specs compound multiplicatively.
  sim::Time inflate_service(int host, sim::Time svc) const;

  /// Decide whether the I/O at [lba, lba+sectors) on `host` fails — latent
  /// sector ranges always, transient specs with their probability (one RNG
  /// draw per active spec). The failed command still occupies the disk for
  /// its full service time (the drive retries internally, then gives up).
  bool io_should_fail(int host, disk::Lba lba, std::int64_t sectors);

  // ---- VM outages ----

  /// True while any outage window covering `vm` is active, or once a
  /// vmcrash/hostcrash covering it has fired (crashes never end).
  bool vm_down(int vm) const;

  /// Listeners for outage begin/end; fired from scheduled events at the
  /// window edges. Register before the simulation runs.
  using VmCallback = std::function<void(int vm, sim::Time now)>;
  void on_vm_down(VmCallback cb) { down_cbs_.push_back(std::move(cb)); }
  void on_vm_up(VmCallback cb) { up_cbs_.push_back(std::move(cb)); }

  // ---- elevator switch commands ----

  struct SwitchVerdict {
    bool ok = true;
    sim::Time delay = sim::Time::zero();  // extra latency before it lands
  };

  /// Adjudicate one cluster-wide switch command at the current sim time.
  SwitchVerdict switch_command();

  struct Counters {
    std::uint64_t io_errors = 0;        // transient failures injected
    std::uint64_t lse_hits = 0;         // latent-sector range hits
    std::uint64_t switch_failures = 0;  // failed switch commands
    std::uint64_t switches_delayed = 0; // delayed switch commands
  };
  const Counters& counters() const { return counters_; }

 private:
  void schedule_outage_events();

  /// Whether `spec` kills `vm` — kVmCrash by VM id, kHostCrash by the VM's
  /// host (needs vms_per_host_; without topology host specs match nothing).
  bool crash_covers(const FaultSpec& spec, int vm) const;

  sim::Simulator& simr_;
  FaultPlan plan_;
  int n_vms_ = 0;
  int vms_per_host_ = 0;
  sim::Rng rng_;
  Counters counters_;
  std::vector<VmCallback> down_cbs_;
  std::vector<VmCallback> up_cbs_;
};

}  // namespace iosim::fault
