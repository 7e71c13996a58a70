// iosim: the anticipatory (AS) elevator.
//
// Deadline-style core (per-direction sorted queues + expiry FIFOs, one-way
// scan, time-bounded batches) plus the defining feature: after a synchronous
// read completes, if the next candidate belongs to a *different* context and
// is far from the head, the scheduler deliberately idles up to `antic_expire`
// waiting for the just-served context to issue its next (probably nearby)
// read. Per-context think-time statistics (EWMA, like the kernel's
// fixed-point means) gate the wait so processes that never come back stop
// being anticipated.
//
// At the Dom0 layer each VM is one context, so anticipation keeps the head
// inside one VM's disk image while that VM streams — the mechanism behind
// AS being the best VMM-level scheduler in the paper's Table I.
#pragma once

#include <unordered_map>

#include "iosched/expiry_queues.hpp"
#include "iosched/scheduler.hpp"

namespace iosim::iosched {

class AnticipatoryScheduler final : public IoScheduler {
 public:
  explicit AnticipatoryScheduler(const AnticipatoryTunables& tun) : tun_(tun) {}

  SchedulerKind kind() const override { return SchedulerKind::kAnticipatory; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request& rq, Time now) override;
  std::optional<Time> wakeup(Time) const override;

  bool empty() const override { return q_.size() == 0; }
  std::size_t size() const override { return q_.size(); }

  /// True while the scheduler is inside an anticipation window (exposed for
  /// tests).
  bool anticipating() const { return anticipating_; }

 private:
  /// Per-context behaviour statistics (kernel: struct as_io_context).
  struct CtxStats {
    bool has_completion = false;
    Time last_completion;
    bool has_think = false;
    double think_ewma_ns = 0.0;
    bool has_pos = false;
    Lba last_end = 0;
  };

  void remove(Request* rq);
  Request* pick_candidate(Time now);
  bool worth_anticipating(std::uint64_t ctx) const;
  void record_think_sample(CtxStats& st, double sample_ns);

  AnticipatoryTunables tun_;
  ExpiryQueues q_;

  // Batch state: time-bounded one-way scan per direction.
  bool batch_active_ = false;
  Dir batch_dir_ = Dir::kRead;
  Time batch_end_;
  Lba batch_pos_ = 0;

  Lba head_pos_ = 0;  // end of last dispatched request

  // Anticipation state.
  bool antic_armed_ = false;        // a sync read just completed
  std::uint64_t antic_ctx_ = 0;     // context we would wait for
  bool anticipating_ = false;       // currently idling
  Time antic_until_;
  Request* antic_hit_ = nullptr;    // request from antic_ctx_ that arrived

  std::unordered_map<std::uint64_t, CtxStats> stats_;
};

}  // namespace iosim::iosched
