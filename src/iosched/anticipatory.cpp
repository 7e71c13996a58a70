#include "iosched/anticipatory.hpp"

#include <cmath>

namespace iosim::iosched {

void AnticipatoryScheduler::record_think_sample(CtxStats& st, double sample_ns) {
  if (!st.has_think) {
    st.think_ewma_ns = sample_ns;
    st.has_think = true;
  } else {
    const double alpha = sample_ns > st.think_ewma_ns ? tun_.ewma_alpha_up
                                                      : tun_.ewma_alpha_down;
    st.think_ewma_ns += alpha * (sample_ns - st.think_ewma_ns);
  }
}

void AnticipatoryScheduler::add(Request* rq, Time now) {
  q_.add(rq, now + (rq->dir == Dir::kRead ? tun_.read_expire : tun_.write_expire));

  if (rq->dir == Dir::kRead && rq->sync) {
    CtxStats& st = stats_[rq->ctx];
    if (st.has_completion) {
      record_think_sample(st, static_cast<double>((now - st.last_completion).ns()));
      st.has_completion = false;  // one think sample per completion
    }
    st.last_end = rq->end();
    st.has_pos = true;
  }

  // A request from the anticipated context satisfies the anticipation: the
  // BlockLayer will re-poll dispatch() on this add and we hand it out.
  if (anticipating_ && rq->ctx == antic_ctx_ && rq->dir == Dir::kRead && rq->sync) {
    antic_hit_ = rq;
  }
}

void AnticipatoryScheduler::remove(Request* rq) {
  q_.remove(rq);
  if (antic_hit_ == rq) antic_hit_ = nullptr;
}

bool AnticipatoryScheduler::worth_anticipating(std::uint64_t ctx) const {
  auto it = stats_.find(ctx);
  if (it == stats_.end()) return true;  // optimistic about unknown contexts
  const CtxStats& st = it->second;
  if (!st.has_think) return true;
  // The kernel anticipates only while the process's mean think time stays
  // within (a small multiple of) the anticipation window.
  return st.think_ewma_ns <=
         tun_.think_factor * static_cast<double>(tun_.antic_expire.ns());
}

Request* AnticipatoryScheduler::pick_candidate(Time now) {
  // Continue the current batch while its quantum lasts and the scan has not
  // run off the end of the queue.
  if (batch_active_) {
    const auto& sorted = q_.sorted(batch_dir_);
    if (now < batch_end_ && !sorted.empty()) {
      auto it = sorted.lower_bound(batch_pos_);
      if (it != sorted.end()) return it->rq;
    }
    batch_active_ = false;
  }

  // Start a new batch: prefer reads; switch to writes when reads are absent
  // or the oldest write has expired.
  const bool reads = !q_.empty(Dir::kRead);
  const bool writes = !q_.empty(Dir::kWrite);
  if (!reads && !writes) return nullptr;

  Dir dir = Dir::kRead;
  if (!reads) {
    dir = Dir::kWrite;
  } else if (writes) {
    if (q_.oldest(Dir::kWrite)->elv.expire <= now) dir = Dir::kWrite;
  }

  batch_active_ = true;
  batch_dir_ = dir;
  batch_end_ = now + (dir == Dir::kRead ? tun_.read_batch_expire
                                        : tun_.write_batch_expire);

  // Deadline jump if the direction's oldest request expired, else continue
  // the one-way scan from the head position (wrap to lowest LBA).
  Request* head = q_.oldest(dir);
  if (head->elv.expire <= now) return head;
  return q_.sorted(dir).lower_bound_wrap(head_pos_)->rq;
}

Request* AnticipatoryScheduler::dispatch(Time now) {
  if (q_.size() == 0) return nullptr;

  if (anticipating_) {
    if (antic_hit_ != nullptr) {
      // The context we waited for came back: serve it immediately.
      Request* rq = antic_hit_;
      anticipating_ = false;
      antic_armed_ = false;
      antic_hit_ = nullptr;
      batch_pos_ = rq->end();
      head_pos_ = rq->end();
      remove(rq);
      return rq;
    }
    if (now < antic_until_) return nullptr;  // keep waiting
    // Timed out: penalize the context so we stop anticipating a process
    // that went away (kernel: think time grows past the window).
    anticipating_ = false;
    antic_armed_ = false;
    CtxStats& st = stats_[antic_ctx_];
    record_think_sample(st, 4.0 * static_cast<double>(tun_.antic_expire.ns()));
  }

  Request* cand = pick_candidate(now);
  if (cand == nullptr) return nullptr;

  // Anticipation decision: a sync read just completed for antic_ctx_, the
  // candidate belongs to someone else and is far from the head, and the
  // just-served context usually comes back quickly.
  if (antic_armed_ && cand->ctx != antic_ctx_) {
    const Lba distance = std::llabs(cand->lba - head_pos_);
    if (distance > tun_.close_window_sectors && worth_anticipating(antic_ctx_)) {
      anticipating_ = true;
      antic_until_ = now + tun_.antic_expire;
      antic_hit_ = nullptr;
      return nullptr;
    }
    antic_armed_ = false;  // decided not to wait; don't reconsider
  }

  batch_pos_ = cand->end();
  head_pos_ = cand->end();
  remove(cand);
  return cand;
}

void AnticipatoryScheduler::on_complete(const Request& rq, Time now) {
  CtxStats& st = stats_[rq.ctx];
  if (rq.dir == Dir::kRead && rq.sync) {
    st.has_completion = true;
    st.last_completion = now;
    antic_armed_ = true;
    antic_ctx_ = rq.ctx;
  }
}

std::optional<Time> AnticipatoryScheduler::wakeup(Time) const {
  if (anticipating_) return antic_until_;
  return std::nullopt;
}

}  // namespace iosim::iosched
