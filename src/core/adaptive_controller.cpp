#include "core/adaptive_controller.hpp"

#include <cassert>
#include <utility>

#include "core/phase_detector.hpp"

namespace iosim::core {

AdaptiveController::AdaptiveController(cluster::Cluster& cl, PairSchedule schedule)
    : PairController(cl), schedule_(std::move(schedule)) {}

std::shared_ptr<AdaptiveController> AdaptiveController::create(
    cluster::Cluster& cl, PairSchedule schedule) {
  assert(cl.pair() == schedule.initial() &&
         "boot the cluster with schedule.initial(); phase 0 is not a switch");
  return std::shared_ptr<AdaptiveController>(
      new AdaptiveController(cl, std::move(schedule)));
}

std::shared_ptr<AdaptiveController> AdaptiveController::attach(
    cluster::Cluster& cl, mapred::Job& job, PairSchedule schedule, PhasePlan plan) {
  assert(schedule.count() == plan.count());
  auto ctl = create(cl, std::move(schedule));
  ctl->attach_job(job, plan, /*phase_offset=*/0);
  return ctl;
}

void AdaptiveController::attach_job(mapred::Job& job, PhasePlan plan,
                                    int phase_offset) {
  auto self = std::static_pointer_cast<AdaptiveController>(shared_from_this());
  PhaseDetector::attach(job, plan, [self, phase_offset](int phase, sim::Time t) {
    self->enter_phase(phase_offset + phase, t);
  });
}

void AdaptiveController::enter_phase(int phase, sim::Time) {
  supersede();  // a retry pending for the previous phase is stale
  if (phase == 0) return;  // installed at boot
  if (phase >= schedule_.count()) return;
  const auto& target = schedule_.phases[static_cast<std::size_t>(phase)];
  if (!target.has_value()) return;  // "0": keep current pair, no switch
  // The paper found that re-issuing the switch command for the *same*
  // schedulers still costs time; the heuristic therefore encodes "same as
  // before" as 0 instead of a redundant switch. We honour an explicit
  // same-pair entry by performing the (costly) switch anyway.
  request_switch(phase, *target);
}

}  // namespace iosim::core
