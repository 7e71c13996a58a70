// iosim: the physical drive as a RequestSink.
//
// With the default `ncq_depth = 1` the drive services exactly one request
// at a time (the 2.6.22-era stack under study dispatched serially to SATA
// drives; request reordering belongs to the elevator above, which is the
// paper's subject). With `ncq_depth > 1` the drive holds several commands
// and services the one with the shortest positioning first — a simple
// SATF approximation of native command queueing, set by the `ncq_depth`
// tunable (bench/specs/ablation_ncq.spec).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "blk/request_sink.hpp"
#include "disk/disk_model.hpp"
#include "fault/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace iosim::blk {

class DiskDevice final : public RequestSink {
 public:
  /// `faults` (optional) is consulted per command for fail-slow inflation
  /// and error injection; `host_id` selects which host-targeted fault specs
  /// apply to this drive.
  DiskDevice(sim::Simulator& simr, disk::DiskParams params, std::uint64_t seed,
             fault::FaultInjector* faults = nullptr, int host_id = 0)
      : simr_(simr), model_(params, seed), depth_(std::max(1, params.ncq_depth)),
        faults_(faults), host_id_(host_id) {}

  bool can_accept() const override {
    return static_cast<int>(queued_.size()) + (busy_ ? 1 : 0) < depth_;
  }

  void submit(Request* rq, Time now) override {
    (void)now;
    queued_.push_back(rq);
    if (!busy_) start_next();
  }

  const disk::DiskModel& model() const { return model_; }

  /// Name of this drive's trace track ("host0/disk"); set by the owner.
  void set_trace_name(std::string name) { trace_name_ = std::move(name); }

 private:
  void start_next() {
    if (busy_ || queued_.empty()) return;
    // SATF approximation: the command whose start LBA is nearest the head.
    // With depth 1 there is only ever one candidate.
    auto it = queued_.begin();
    if (queued_.size() > 1) {
      const disk::Lba head = model_.head();
      it = std::min_element(queued_.begin(), queued_.end(),
                            [head](const Request* a, const Request* b) {
                              return std::llabs(a->lba - head) <
                                     std::llabs(b->lba - head);
                            });
    }
    Request* rq = *it;
    queued_.erase(it);
    busy_ = true;
    svc_start_ = simr_.now();  // one request in service at a time
    Time svc = model_.service(
        {rq->lba, rq->sectors, rq->dir == iosched::Dir::kWrite});
    if (faults_ != nullptr) {
      svc = faults_->inflate_service(host_id_, svc);
      // The outcome is decided (and stamped on the request) up front so the
      // completion capture stays small; a failed command still occupies the
      // drive for its full service time — the firmware retries the medium
      // before reporting the error.
      if (faults_->io_should_fail(host_id_, rq->lba, rq->sectors)) {
        rq->status = iosched::IoStatus::kError;
      }
    }
    // Two pointers: well inside sim::EventFn's inline buffer, so a disk
    // I/O's completion event allocates nothing.
    simr_.after(svc, [this, rq] {
      busy_ = false;
      if (auto* tr = trace::tracer()) {
        tr->complete(tr->track(trace_name_), tr->ids.disk_io, tr->ids.cat_disk,
                     svc_start_, simr_.now(), tr->ids.lba, rq->lba,
                     tr->ids.sectors, rq->sectors);
      }
      complete(rq, simr_.now());
      // `complete` re-enters the block layer, which kicks dispatch itself;
      // with NCQ the explicit ready() also covers capacity freed while the
      // layer was not the completion's owner. When that kick refilled the
      // drive, ready() is skipped: a kick with the sink full returns at once.
      if (can_accept()) ready(simr_.now());
      start_next();
    });
  }

  sim::Simulator& simr_;
  disk::DiskModel model_;
  int depth_;
  fault::FaultInjector* faults_;
  int host_id_;
  bool busy_ = false;
  Time svc_start_;  // start of the in-service request (valid while busy_)
  std::vector<Request*> queued_;
  std::string trace_name_ = "disk";
};

}  // namespace iosim::blk
