// iosim: the CFQ (completely fair queueing) elevator.
//
// One sorted queue per issuing context for synchronous requests, plus one
// shared queue for asynchronous writes (the kernel shares async queues per
// priority level; we model the single default priority). Queues are serviced
// round-robin; an activated sync queue owns the disk for a wall-clock slice
// (default 100 ms) and, when it runs dry inside its slice, the scheduler
// idles up to `slice_idle` (8 ms) for the owner's next request rather than
// seeking away. That idling is what gives CFQ its per-process fairness — and
// the slice-switch seeks are what make it slightly slower than AS for
// multi-VM streaming at the Dom0 level (paper Fig. 3: CFQ fairer, AS faster).
#pragma once

#include <unordered_map>

#include "iosched/lba_queue.hpp"
#include "iosched/scheduler.hpp"
#include "sim/ring_fifo.hpp"

namespace iosim::iosched {

class CfqScheduler final : public IoScheduler {
 public:
  explicit CfqScheduler(const CfqTunables& tun) : tun_(tun) {}

  SchedulerKind kind() const override { return SchedulerKind::kCfq; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request& rq, Time now) override;
  std::optional<Time> wakeup(Time) const override;

  bool empty() const override { return count_ == 0; }
  std::size_t size() const override { return count_; }
  std::vector<Request*> drain() override;

  /// Number of distinct per-context sync queues currently known (tests).
  std::size_t sync_queue_count() const { return sync_queues_.size(); }

 private:
  struct CfqQueue {
    std::uint64_t ctx = 0;
    bool sync = true;
    LbaQueue q;
    Lba pos = 0;       // one-way scan position within the queue
    bool in_rr = false;
    // Think-time tracking (gates slice idling, like the kernel's ttime_mean).
    bool has_completion = false;
    Time last_completion;
    bool has_think = false;
    double think_ewma_ns = 0.0;
  };

  void enqueue_rr(CfqQueue* cq);
  void deactivate(Time now);
  CfqQueue* queue_for(const Request& rq);
  Request* take_from(CfqQueue* cq);

  CfqTunables tun_;
  std::unordered_map<std::uint64_t, CfqQueue> sync_queues_;
  CfqQueue async_queue_{/*ctx=*/0, /*sync=*/false, {}, 0, false, false, {}, false, 0.0};
  sim::RingFifo<CfqQueue*> rr_;
  std::size_t count_ = 0;

  CfqQueue* active_ = nullptr;
  Time slice_end_;
  bool idling_ = false;      // active sync queue empty, idle window open
  Time idle_until_;
  int active_dispatched_ = 0;  // dispatches in current activation (async cap)
};

}  // namespace iosim::iosched
