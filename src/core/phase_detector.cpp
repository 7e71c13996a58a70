#include "core/phase_detector.hpp"

#include <utility>

#include "trace/trace.hpp"

namespace iosim::core {

namespace {
void trace_phase(int phase, Time t) {
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("core"), tr->ids.phase, tr->ids.cat_core, t,
                tr->ids.index, phase);
  }
}
}  // namespace

void PhaseDetector::attach(mapred::Job& job, PhasePlan plan, PhaseCallback cb) {
  // Phase 0 is entered right away.
  trace_phase(0, job.env().simr->now());
  cb(0, job.env().simr->now());

  // Phase 1 entry: all maps done; phase 2 (unmerged plans): shuffle done.
  mapred::Job::Hooks hooks{.on_maps_done = [cb](Time t) {
    trace_phase(1, t);
    cb(1, t);
  }};
  if (!plan.merge_shuffle_tail) {
    hooks.on_shuffle_done = [cb](Time t) {
      trace_phase(2, t);
      cb(2, t);
    };
  }
  job.append_hooks(std::move(hooks));
}

}  // namespace iosim::core
