// Test-only reference copies of elevators as they were before their queues
// changed shape:
//   * deadline and AS before their queue state moved into Request: a
//     `std::list` FIFO per direction plus an `unordered_map<Request*,
//     Handles>` from each request to its tree and FIFO positions and its
//     deadline;
//   * CFQ before its per-context sorted queues became flat vectors
//     (iosched::LbaQueue): a `std::multimap<Lba, Request*>` per queue and a
//     `std::deque` round-robin list. Apart from the class name, the
//     namespace and the dropped `note_back_merge` no-op, it is the old CFQ
//     verbatim.
// The differential test in elevator_oracle_test.cpp drives these and the
// production elevators with identical streams and requires identical
// dispatch orders.
#pragma once

#include <deque>
#include <list>
#include <map>
#include <unordered_map>

#include "iosched/scheduler.hpp"

namespace iosim::iosched::test {

class LegacyDeadline final : public IoScheduler {
 public:
  explicit LegacyDeadline(const DeadlineTunables& tun) : tun_(tun) {}

  SchedulerKind kind() const override { return SchedulerKind::kDeadline; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request&, Time) override {}
  std::optional<Time> wakeup(Time) const override { return std::nullopt; }

  bool empty() const override { return count_ == 0; }
  std::size_t size() const override { return count_; }

 private:
  using SortedQueue = std::multimap<Lba, Request*>;
  using Fifo = std::list<Request*>;

  struct Handles {
    SortedQueue::iterator sorted_it;
    Fifo::iterator fifo_it;
    Time expire;  // absolute deadline
  };

  int idx(Dir d) const { return static_cast<int>(d); }
  void remove(Request* rq);
  Request* next_in_batch();
  Request* start_batch(Dir d, Time now);

  DeadlineTunables tun_;
  SortedQueue sorted_[kNumDirs];
  Fifo fifo_[kNumDirs];
  std::unordered_map<Request*, Handles> handles_;
  std::size_t count_ = 0;

  // Batch state.
  int batch_remaining_ = 0;
  Dir batch_dir_ = Dir::kRead;
  Lba batch_pos_ = 0;  // dispatch continues at first LBA >= batch_pos_
  int starved_ = 0;    // read batches served while writes were waiting
};


class LegacyAnticipatory final : public IoScheduler {
 public:
  explicit LegacyAnticipatory(const AnticipatoryTunables& tun) : tun_(tun) {}

  SchedulerKind kind() const override { return SchedulerKind::kAnticipatory; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request& rq, Time now) override;
  std::optional<Time> wakeup(Time) const override;

  bool empty() const override { return count_ == 0; }
  std::size_t size() const override { return count_; }

  /// True while the scheduler is inside an anticipation window (exposed for
  /// tests).
  bool anticipating() const { return anticipating_; }

 private:
  using SortedQueue = std::multimap<Lba, Request*>;
  using Fifo = std::list<Request*>;

  struct Handles {
    SortedQueue::iterator sorted_it;
    Fifo::iterator fifo_it;
    Time expire;
  };

  /// Per-context behaviour statistics (kernel: struct as_io_context).
  struct CtxStats {
    bool has_completion = false;
    Time last_completion;
    bool has_think = false;
    double think_ewma_ns = 0.0;
    bool has_pos = false;
    Lba last_end = 0;
  };

  int idx(Dir d) const { return static_cast<int>(d); }
  void remove(Request* rq);
  Request* pick_candidate(Time now);
  bool worth_anticipating(std::uint64_t ctx) const;
  void record_think_sample(CtxStats& st, double sample_ns);

  AnticipatoryTunables tun_;
  SortedQueue sorted_[kNumDirs];
  Fifo fifo_[kNumDirs];
  std::unordered_map<Request*, Handles> handles_;
  std::size_t count_ = 0;

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

class LegacyCfq final : public IoScheduler {
 public:
  explicit LegacyCfq(const CfqTunables& tun) : tun_(tun) {}

  SchedulerKind kind() const override { return SchedulerKind::kCfq; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request& rq, Time now) override;
  std::optional<Time> wakeup(Time) const override;

  bool empty() const override { return count_ == 0; }
  std::size_t size() const override { return count_; }

  /// Number of distinct per-context sync queues currently known (tests).
  std::size_t sync_queue_count() const { return sync_queues_.size(); }

 private:
  struct CfqQueue {
    std::uint64_t ctx = 0;
    bool sync = true;
    std::multimap<Lba, Request*> q;
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
  std::deque<CfqQueue*> rr_;
  std::size_t count_ = 0;

  CfqQueue* active_ = nullptr;
  Time slice_end_;
  bool idling_ = false;      // active sync queue empty, idle window open
  Time idle_until_;
  int active_dispatched_ = 0;  // dispatches in current activation (async cap)
};

}  // namespace iosim::iosched::test
