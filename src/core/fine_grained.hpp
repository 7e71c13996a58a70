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
// has no cluster-wide switch command, so it stays outside that base. A
// SwitchPredictor gates each switch so hosts don't thrash when the expected
// benefit cannot repay the quiesce cost.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/switch_predictor.hpp"
#include "mapred/job.hpp"

namespace iosim::core {

/// Regime -> pair policy. Defaults follow the per-phase profiling insight:
/// read-heavy map-style traffic and write-heavy reduce-style traffic prefer
/// different pairs.
struct FineGrainedPolicy {
  /// Sync-read byte share above which a host counts as read-dominated.
  double read_regime_threshold = 0.55;
  /// Below this read share the host counts as write-dominated.
  double write_regime_threshold = 0.35;

  iosched::SchedulerPair read_pair{iosched::SchedulerKind::kAnticipatory,
                                   iosched::SchedulerKind::kAnticipatory};
  iosched::SchedulerPair write_pair{iosched::SchedulerKind::kDeadline,
                                    iosched::SchedulerKind::kDeadline};
  iosched::SchedulerPair mixed_pair{iosched::SchedulerKind::kDeadline,
                                    iosched::SchedulerKind::kAnticipatory};

  /// Sampling period and the minimum spacing between switches per host.
  sim::Time sample_period = sim::Time::from_sec(10);
  sim::Time min_switch_gap = sim::Time::from_sec(120);

  /// Hysteresis: the regime classifier must propose the same target pair
  /// for this many consecutive samples before a switch is issued (the
  /// mixed middle of a job oscillates around the thresholds).
  int confirm_samples = 3;

  /// Assumed rate gain from running the regime-matched pair (gates the
  /// switch through the predictor); calibrate from profiling.
  double assumed_rate_gain = 0.04;
};

class FineGrainedController {
 public:
  /// Attach to a job about to run on `cl`. Keeps itself alive through the
  /// scheduled sampling events; sampling stops when the job completes.
  static std::shared_ptr<FineGrainedController> attach(cluster::Cluster& cl,
                                                       mapred::Job& job,
                                                       FineGrainedPolicy policy,
                                                       SwitchPredictor predictor);

  int total_switches() const { return total_switches_; }
  int samples() const { return samples_; }

 private:
  FineGrainedController(cluster::Cluster& cl, mapred::Job& job,
                        FineGrainedPolicy policy, SwitchPredictor predictor);
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
  SwitchPredictor predictor_;
  std::vector<HostState> hosts_;
  int total_switches_ = 0;
  int samples_ = 0;
};

}  // namespace iosim::core
