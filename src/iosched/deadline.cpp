#include "iosched/deadline.hpp"

#include <cassert>

namespace iosim::iosched {

void DeadlineScheduler::add(Request* rq, Time now) {
  q_.add(rq, now + (rq->dir == Dir::kRead ? tun_.read_expire : tun_.write_expire));
}

Request* DeadlineScheduler::next_in_batch() {
  const auto& sorted = q_.sorted(batch_dir_);
  auto it = sorted.lower_bound(batch_pos_);
  if (it == sorted.end()) return nullptr;  // scan hit the end: batch over
  return it->rq;
}

Request* DeadlineScheduler::start_batch(Dir dir, Time now) {
  const auto& sorted = q_.sorted(dir);
  assert(!sorted.empty());
  batch_dir_ = dir;
  batch_remaining_ = tun_.fifo_batch;

  // A new batch honours deadlines: if the oldest request of this direction
  // has expired, the scan jumps to it; otherwise continue from the current
  // scan position (one-way elevator with wrap).
  Request* head = q_.oldest(dir);
  if (head->elv.expire <= now) return head;
  return sorted.lower_bound_wrap(batch_pos_)->rq;  // wrap to lowest LBA
}

Request* DeadlineScheduler::dispatch(Time now) {
  if (q_.size() == 0) return nullptr;

  Request* rq = nullptr;
  if (batch_remaining_ > 0) {
    rq = next_in_batch();
  }

  if (rq == nullptr) {
    // Pick the direction for a fresh batch. Reads win unless writes have
    // been starved `writes_starved` times in a row.
    const bool reads = !q_.empty(Dir::kRead);
    const bool writes = !q_.empty(Dir::kWrite);
    Dir dir;
    if (reads && writes) {
      dir = (starved_ >= tun_.writes_starved) ? Dir::kWrite : Dir::kRead;
    } else {
      dir = reads ? Dir::kRead : Dir::kWrite;
    }
    if (dir == Dir::kRead && writes) {
      ++starved_;
    } else if (dir == Dir::kWrite) {
      starved_ = 0;
    }
    rq = start_batch(dir, now);
  }

  assert(rq != nullptr);
  --batch_remaining_;
  batch_pos_ = rq->end();
  q_.remove(rq);
  return rq;
}

}  // namespace iosim::iosched
