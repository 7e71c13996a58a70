#include "core/pair_controller.hpp"

#include <algorithm>
#include <cstdint>

#include "trace/trace.hpp"
#include "virt/physical_host.hpp"

namespace iosim::core {

PairController::PairController(cluster::Cluster& cl) : cl_(cl) {
  // agg_ is a member: it only fires while this controller is alive.
  agg_.on_cluster_phase = [this](int kind) { enter_phase(kind, cl_.simr().now()); };
}

void PairController::attach_stream_job(mapred::Job& job) {
  const int id = job.job_id();
  auto self = shared_from_this();
  job.append_hooks({
      .on_maps_done = [self, id](sim::Time) { self->agg_.job_phase(id, 1); },
      .on_shuffle_done = [self, id](sim::Time) { self->agg_.job_phase(id, 2); },
      .on_done = [self, id](sim::Time) { self->agg_.job_retired(id); },
      .on_failed = [self, id](sim::Time, const std::string&) {
        self->agg_.job_retired(id);
      }});
  agg_.job_admitted(id);
  stream_job_admitted();
}

void PairController::on_switched(int tag, iosched::SchedulerPair target) {
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("core"), tr->ids.pair_switch, tr->ids.cat_core,
                cl_.simr().now(), tr->ids.index, tag, tr->ids.pair,
                virt::PhysicalHost::pair_code(target));
  }
}

void PairController::on_switch_failed(int tag, int attempt) {
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("core"), tr->ids.switch_fail, tr->ids.cat_core,
                cl_.simr().now(), tr->ids.index, tag, tr->ids.attempt, attempt);
  }
}

void PairController::attempt(int tag, iosched::SchedulerPair target, int failures) {
  if (cl_.try_switch_pair(target)) {
    ++switches_;
    on_switched(tag, target);
    return;
  }
  // Command rejected: the old pair stays installed on every host. Retry with
  // capped exponential backoff unless a newer request supersedes the target
  // before the timer fires.
  ++failures_;
  on_switch_failed(tag, failures + 1);
  if (failures >= kMaxRetries) return;  // budget exhausted: keep the old pair
  const sim::Time delay = std::min(
      kRetryCap,
      kRetryBase * static_cast<double>(std::int64_t{1} << std::min(failures, 3)));
  const int issued_epoch = epoch_;
  auto self = shared_from_this();
  cl_.simr().after(delay, [self, tag, target, failures, issued_epoch] {
    if (self->epoch_ != issued_epoch) return;  // superseded by a newer request
    ++self->retries_;
    self->attempt(tag, target, failures + 1);
  });
}

}  // namespace iosim::core
