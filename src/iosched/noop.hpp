// iosim: the noop elevator — FIFO dispatch, merging only.
//
// Linux noop keeps requests in submission order and relies on merging alone.
// At the Dom0 level with several VMs streaming concurrently this interleaves
// requests that live in different disk-image extents, which is exactly the
// seek-thrash behaviour behind the paper's "Noop in the VMM is disastrous"
// observation (Fig. 2, Table I).
#pragma once

#include "iosched/scheduler.hpp"
#include "sim/ring_fifo.hpp"

namespace iosim::iosched {

class NoopScheduler final : public IoScheduler {
 public:
  SchedulerKind kind() const override { return SchedulerKind::kNoop; }

  void add(Request* rq, Time) override { q_.push_back(rq); }

  Request* dispatch(Time) override { return q_.empty() ? nullptr : q_.pop_front(); }

  void on_complete(const Request&, Time) override {}
  std::optional<Time> wakeup(Time) const override { return std::nullopt; }

  bool empty() const override { return q_.empty(); }
  std::size_t size() const override { return q_.size(); }

 private:
  sim::RingFifo<Request*> q_;
};

}  // namespace iosim::iosched
