// iosim: the deadline elevator.
//
// Faithful to the classic Linux deadline discipline: per-direction sorted
// queues plus per-direction FIFOs with expiry (reads 500 ms, writes 5 s).
// Dispatch runs in batches that continue in ascending-LBA order; a new batch
// first checks the FIFO head of the chosen direction and jumps to it if its
// deadline has passed. Reads are preferred, with a `writes_starved` bound.
#pragma once

#include "iosched/expiry_queues.hpp"
#include "iosched/scheduler.hpp"

namespace iosim::iosched {

class DeadlineScheduler final : public IoScheduler {
 public:
  explicit DeadlineScheduler(const DeadlineTunables& tun) : tun_(tun) {}

  SchedulerKind kind() const override { return SchedulerKind::kDeadline; }

  void add(Request* rq, Time now) override;
  Request* dispatch(Time now) override;
  void on_complete(const Request&, Time) override {}
  std::optional<Time> wakeup(Time) const override { return std::nullopt; }

  bool empty() const override { return q_.size() == 0; }
  std::size_t size() const override { return q_.size(); }
  std::vector<Request*> drain() override;

 private:
  Request* next_in_batch();
  Request* start_batch(Dir d, Time now);

  DeadlineTunables tun_;
  ExpiryQueues q_;

  // Batch state.
  int batch_remaining_ = 0;
  Dir batch_dir_ = Dir::kRead;
  Lba batch_pos_ = 0;  // dispatch continues at first LBA >= batch_pos_
  int starved_ = 0;    // read batches served while writes were waiting
};

}  // namespace iosim::iosched
