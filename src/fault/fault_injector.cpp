#include "fault/fault_injector.hpp"

#include "trace/trace.hpp"

namespace iosim::fault {

namespace {
void trace_fault_instant(trace::Str trace::Tracer::CommonIds::* what,
                         sim::Time t, std::int64_t a0 = 0, std::int64_t a1 = 0) {
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("faults"), tr->ids.*what, tr->ids.cat_fault, t,
                tr->ids.index, a0, tr->ids.value, a1);
  }
}
}  // namespace

FaultInjector::FaultInjector(sim::Simulator& simr, FaultPlan plan,
                             std::uint64_t seed, int n_vms, int vms_per_host)
    : simr_(simr),
      plan_(std::move(plan)),
      n_vms_(n_vms),
      vms_per_host_(vms_per_host),
      rng_(seed) {
  schedule_outage_events();
  // Arm markers: one pinned instant per spec at its window start, so a trace
  // shows when each fault came alive even after ring wrap.
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    simr_.at(s.from, [this, i] {
      trace_fault_instant(&trace::Tracer::CommonIds::fault, simr_.now(),
                          static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(plan_.specs[i].kind));
    });
  }
}

void FaultInjector::schedule_outage_events() {
  auto schedule_down = [this](sim::Time at, int vm) {
    simr_.at(at, [this, vm] {
      trace_fault_instant(&trace::Tracer::CommonIds::vm_down, simr_.now(), vm);
      // Index loop: a callback may register further listeners.
      for (std::size_t i = 0; i < down_cbs_.size(); ++i) {
        down_cbs_[i](vm, simr_.now());
      }
    });
  };
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kVmOutage || s.kind == FaultKind::kVmCrash) {
      schedule_down(s.from, s.vm);
    } else if (s.kind == FaultKind::kHostCrash && vms_per_host_ > 0) {
      // One death event per resident VM, in VM-id order, all at the same
      // instant — listeners see a host loss as a burst of VM losses.
      for (int vm = 0; vm < n_vms_; ++vm) {
        if (vm / vms_per_host_ == s.host) schedule_down(s.from, vm);
      }
    }
    // Crashes are permanent: no up event.
    if (s.kind == FaultKind::kVmOutage && s.until < sim::Time::max()) {
      const int vm = s.vm;
      simr_.at(s.until, [this, vm] {
        trace_fault_instant(&trace::Tracer::CommonIds::vm_up, simr_.now(), vm);
        for (std::size_t i = 0; i < up_cbs_.size(); ++i) {
          up_cbs_[i](vm, simr_.now());
        }
      });
    }
  }
}

sim::Time FaultInjector::inflate_service(int host, sim::Time svc) const {
  const sim::Time now = simr_.now();
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind != FaultKind::kFailSlow) continue;
    if (s.host != -1 && s.host != host) continue;
    if (!s.active_at(now)) continue;
    svc = svc * s.factor;
  }
  return svc;
}

bool FaultInjector::io_should_fail(int host, disk::Lba lba,
                                   std::int64_t sectors) {
  const sim::Time now = simr_.now();
  bool fail = false;
  for (const FaultSpec& s : plan_.specs) {
    if (s.host != -1 && s.host != host) continue;
    if (!s.active_at(now)) continue;
    if (s.kind == FaultKind::kLatentSector) {
      if (lba < s.lba_end && lba + sectors > s.lba_begin) {
        ++counters_.lse_hits;
        fail = true;
      }
    } else if (s.kind == FaultKind::kTransientError) {
      // Draw even if an earlier spec already failed this I/O: the RNG
      // consumption per I/O depends only on which windows are active, never
      // on other specs' outcomes, which keeps overlapping plans replayable.
      if (rng_.chance(s.probability)) {
        ++counters_.io_errors;
        fail = true;
      }
    }
  }
  return fail;
}

bool FaultInjector::crash_covers(const FaultSpec& s, int vm) const {
  if (s.kind == FaultKind::kVmCrash) return s.vm == vm;
  if (s.kind == FaultKind::kHostCrash) {
    return vms_per_host_ > 0 && vm / vms_per_host_ == s.host;
  }
  return false;
}

bool FaultInjector::vm_down(int vm) const {
  const sim::Time now = simr_.now();
  for (const FaultSpec& s : plan_.specs) {
    if (s.kind == FaultKind::kVmOutage && s.vm == vm && s.active_at(now)) {
      return true;
    }
    // Crash windows never close (until == Time::max()).
    if (crash_covers(s, vm) && s.active_at(now)) return true;
  }
  return false;
}

FaultInjector::SwitchVerdict FaultInjector::switch_command() {
  const sim::Time now = simr_.now();
  SwitchVerdict v;
  for (const FaultSpec& s : plan_.specs) {
    if (!s.active_at(now)) continue;
    if (s.kind == FaultKind::kSwitchFail) {
      if (rng_.chance(s.probability)) v.ok = false;
    } else if (s.kind == FaultKind::kSwitchDelay) {
      v.delay += s.delay;
    }
  }
  if (!v.ok) {
    ++counters_.switch_failures;
    trace_fault_instant(&trace::Tracer::CommonIds::switch_fail, now);
  } else if (v.delay > sim::Time::zero()) {
    ++counters_.switches_delayed;
  }
  return v;
}

}  // namespace iosim::fault
