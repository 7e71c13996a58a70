// iosim: the runtime half of the meta-scheduler — applies a PairSchedule
// to a live cluster at the phase boundaries each job's PhaseDetector
// reports.
//
// Failure semantics are the PairController's (core/pair_controller.hpp): a
// failed switch command leaves the old pair installed and is retried with
// capped exponential backoff; a retry is abandoned the moment a newer phase
// boundary arrives (its target pair has been superseded). The controller
// therefore degrades gracefully: the job keeps running under the previous
// pair until a retry lands.
#pragma once

#include <memory>

#include "cluster/cluster.hpp"
#include "core/pair_controller.hpp"
#include "core/pair_schedule.hpp"
#include "core/phase_plan.hpp"

namespace iosim::core {

class AdaptiveController : public PairController {
 public:
  /// Attach a controller to a job about to run on `cl`. The cluster must
  /// have been booted with `schedule.initial()` (construction-time install;
  /// no switch cost). Subsequent phases that name a pair trigger a
  /// cluster-wide switch, paying the elevator quiesce on every block layer
  /// in the cluster — exactly the cost the paper's heuristic must amortize.
  /// Returns a handle that reports how many switches happened; the
  /// controller keeps itself alive through the job's callbacks.
  static std::shared_ptr<AdaptiveController> attach(cluster::Cluster& cl,
                                                    mapred::Job& job,
                                                    PairSchedule schedule,
                                                    PhasePlan plan);

  /// A controller for a whole job chain on `cl` (booted with
  /// `schedule.initial()`): attach every job with attach_job.
  static std::shared_ptr<AdaptiveController> create(cluster::Cluster& cl,
                                                    PairSchedule schedule);

  /// Replay the schedule at `job`'s phase boundaries: its local phase i is
  /// schedule phase `phase_offset + i`.
  void attach_job(mapred::Job& job, PhasePlan plan, int phase_offset);

 private:
  AdaptiveController(cluster::Cluster& cl, PairSchedule schedule);

  void enter_phase(int phase, sim::Time t) override;

  PairSchedule schedule_;
};

}  // namespace iosim::core
