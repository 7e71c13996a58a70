// iosim: fine-grained per-host adaptive control (the paper's future work,
// Section VII: "a fine-grained control method ... using information from
// the VMs within the same physical node and based on the status of the
// VMs' I/O (i.e. the number of requests)").
//
// Unlike the PairController family (core/pair_controller.hpp) — which
// assumes the MapReduce stages are synchronized cluster-wide and issues one
// switch command for every host at a phase boundary — this controller
// samples each host's Dom0 I/O composition (read/write byte mix and observed
// load) on a fixed period, classifies the host's current regime, and
// switches that host's pair independently with PhysicalHost::set_pair. It
// has no cluster-wide switch command, so it stays outside that base. Each
// switch is gated on kSwitchCostSeconds (core/pair_schedule.hpp) so hosts
// don't thrash when the expected benefit cannot repay the quiesce cost.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/pair_schedule.hpp"
#include "mapred/job.hpp"

namespace iosim::core {

/// Sampling and gating knobs. The regime -> pair map below is fixed; tests
/// shorten the period and gap to reach switching on small jobs, and move
/// the assumed gain to open or close the switch-cost gate.
struct FineGrainedPolicy {
  /// Sampling period and the minimum spacing between switches per host.
  sim::Time sample_period = sim::Time::from_sec(10);
  sim::Time min_switch_gap = sim::Time::from_sec(120);

  /// Assumed rate gain from running the regime-matched pair: a switch is
  /// issued only when `assumed_rate_gain * remaining seconds` exceeds
  /// kSwitchCostSeconds. Calibrate from profiling.
  double assumed_rate_gain = 0.04;
};

class FineGrainedController {
 public:
  /// Attach to a job about to run on `cl`. Keeps itself alive through the
  /// scheduled sampling events; sampling stops when the job completes.
  static std::shared_ptr<FineGrainedController> attach(cluster::Cluster& cl,
                                                       mapred::Job& job,
                                                       FineGrainedPolicy policy = {});

  int total_switches() const { return total_switches_; }
  int samples() const { return samples_; }

 private:
  FineGrainedController(cluster::Cluster& cl, mapred::Job& job,
                        FineGrainedPolicy policy);
  void sample(const std::shared_ptr<FineGrainedController>& self);

  struct HostState {
    std::int64_t last_read_bytes = 0;
    std::int64_t last_write_bytes = 0;
    sim::Time last_switch = sim::Time::from_sec(-3600);
    iosched::SchedulerPair pending_target;
    int pending_count = 0;
  };

  cluster::Cluster& cl_;
  mapred::Job& job_;
  FineGrainedPolicy policy_;
  std::vector<HostState> hosts_;
  int total_switches_ = 0;
  int samples_ = 0;
};

}  // namespace iosim::core
