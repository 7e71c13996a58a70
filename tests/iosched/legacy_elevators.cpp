#include "legacy_elevators.hpp"

#include <cassert>
#include <cmath>

namespace iosim::iosched::test {


void LegacyDeadline::add(Request* rq, Time now) {
  const int d = idx(rq->dir);
  auto sit = sorted_[d].emplace(rq->lba, rq);
  fifo_[d].push_back(rq);
  auto fit = std::prev(fifo_[d].end());
  const Time expire =
      now + (rq->dir == Dir::kRead ? tun_.read_expire : tun_.write_expire);
  handles_.emplace(rq, Handles{sit, fit, expire});
  ++count_;
}

void LegacyDeadline::remove(Request* rq) {
  auto it = handles_.find(rq);
  assert(it != handles_.end());
  const int d = idx(rq->dir);
  sorted_[d].erase(it->second.sorted_it);
  fifo_[d].erase(it->second.fifo_it);
  handles_.erase(it);
  --count_;
}

Request* LegacyDeadline::next_in_batch() {
  const int d = idx(batch_dir_);
  auto it = sorted_[d].lower_bound(batch_pos_);
  if (it == sorted_[d].end()) return nullptr;  // scan hit the end: batch over
  return it->second;
}

Request* LegacyDeadline::start_batch(Dir dir, Time now) {
  const int d = idx(dir);
  assert(!sorted_[d].empty());
  batch_dir_ = dir;
  batch_remaining_ = tun_.fifo_batch;

  // A new batch honours deadlines: if the oldest request of this direction
  // has expired, the scan jumps to it; otherwise continue from the current
  // scan position (one-way elevator with wrap).
  Request* head = fifo_[d].front();
  Request* rq;
  const Time expire = handles_.at(head).expire;
  if (expire <= now) {
    rq = head;
  } else {
    auto it = sorted_[d].lower_bound(batch_pos_);
    if (it == sorted_[d].end()) it = sorted_[d].begin();  // wrap to lowest LBA
    rq = it->second;
  }
  return rq;
}

Request* LegacyDeadline::dispatch(Time now) {
  if (count_ == 0) return nullptr;

  Request* rq = nullptr;
  if (batch_remaining_ > 0) {
    rq = next_in_batch();
  }

  if (rq == nullptr) {
    // Pick the direction for a fresh batch. Reads win unless writes have
    // been starved `writes_starved` times in a row.
    const bool reads = !sorted_[idx(Dir::kRead)].empty();
    const bool writes = !sorted_[idx(Dir::kWrite)].empty();
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
  remove(rq);
  return rq;
}

std::vector<Request*> LegacyDeadline::drain() {
  std::vector<Request*> out;
  out.reserve(count_);
  for (int d = 0; d < kNumDirs; ++d) {
    for (Request* rq : fifo_[d]) out.push_back(rq);
    fifo_[d].clear();
    sorted_[d].clear();
  }
  handles_.clear();
  count_ = 0;
  batch_remaining_ = 0;
  starved_ = 0;
  return out;
}


void LegacyAnticipatory::record_think_sample(CtxStats& st, double sample_ns) {
  if (!st.has_think) {
    st.think_ewma_ns = sample_ns;
    st.has_think = true;
  } else {
    const double alpha = sample_ns > st.think_ewma_ns ? tun_.ewma_alpha_up
                                                      : tun_.ewma_alpha_down;
    st.think_ewma_ns += alpha * (sample_ns - st.think_ewma_ns);
  }
}

void LegacyAnticipatory::add(Request* rq, Time now) {
  const int d = idx(rq->dir);
  auto sit = sorted_[d].emplace(rq->lba, rq);
  fifo_[d].push_back(rq);
  auto fit = std::prev(fifo_[d].end());
  const Time expire =
      now + (rq->dir == Dir::kRead ? tun_.read_expire : tun_.write_expire);
  handles_.emplace(rq, Handles{sit, fit, expire});
  ++count_;

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

void LegacyAnticipatory::remove(Request* rq) {
  auto it = handles_.find(rq);
  assert(it != handles_.end());
  const int d = idx(rq->dir);
  sorted_[d].erase(it->second.sorted_it);
  fifo_[d].erase(it->second.fifo_it);
  handles_.erase(it);
  --count_;
  if (antic_hit_ == rq) antic_hit_ = nullptr;
}

bool LegacyAnticipatory::worth_anticipating(std::uint64_t ctx) const {
  auto it = stats_.find(ctx);
  if (it == stats_.end()) return true;  // optimistic about unknown contexts
  const CtxStats& st = it->second;
  if (!st.has_think) return true;
  // The kernel anticipates only while the process's mean think time stays
  // within (a small multiple of) the anticipation window.
  return st.think_ewma_ns <=
         tun_.think_factor * static_cast<double>(tun_.antic_expire.ns());
}

Request* LegacyAnticipatory::pick_candidate(Time now) {
  // Continue the current batch while its quantum lasts and the scan has not
  // run off the end of the queue.
  if (batch_active_) {
    const int d = idx(batch_dir_);
    if (now < batch_end_ && !sorted_[d].empty()) {
      auto it = sorted_[d].lower_bound(batch_pos_);
      if (it != sorted_[d].end()) return it->second;
    }
    batch_active_ = false;
  }

  // Start a new batch: prefer reads; switch to writes when reads are absent
  // or the oldest write has expired.
  const bool reads = !sorted_[idx(Dir::kRead)].empty();
  const bool writes = !sorted_[idx(Dir::kWrite)].empty();
  if (!reads && !writes) return nullptr;

  Dir dir = Dir::kRead;
  if (!reads) {
    dir = Dir::kWrite;
  } else if (writes) {
    Request* whead = fifo_[idx(Dir::kWrite)].front();
    if (handles_.at(whead).expire <= now) dir = Dir::kWrite;
  }

  const int d = idx(dir);
  batch_active_ = true;
  batch_dir_ = dir;
  batch_end_ = now + (dir == Dir::kRead ? tun_.read_batch_expire
                                        : tun_.write_batch_expire);

  // Deadline jump if the direction's oldest request expired, else continue
  // the one-way scan from the head position (wrap to lowest LBA).
  Request* head = fifo_[d].front();
  if (handles_.at(head).expire <= now) return head;
  auto it = sorted_[d].lower_bound(head_pos_);
  if (it == sorted_[d].end()) it = sorted_[d].begin();
  return it->second;
}

Request* LegacyAnticipatory::dispatch(Time now) {
  if (count_ == 0) return nullptr;

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

void LegacyAnticipatory::on_complete(const Request& rq, Time now) {
  CtxStats& st = stats_[rq.ctx];
  if (rq.dir == Dir::kRead && rq.sync) {
    st.has_completion = true;
    st.last_completion = now;
    antic_armed_ = true;
    antic_ctx_ = rq.ctx;
  }
}

std::optional<Time> LegacyAnticipatory::wakeup(Time) const {
  if (anticipating_) return antic_until_;
  if (batch_active_ && count_ > 0) return std::nullopt;
  return std::nullopt;
}

std::vector<Request*> LegacyAnticipatory::drain() {
  std::vector<Request*> out;
  out.reserve(count_);
  for (int d = 0; d < kNumDirs; ++d) {
    for (Request* rq : fifo_[d]) out.push_back(rq);
    fifo_[d].clear();
    sorted_[d].clear();
  }
  handles_.clear();
  count_ = 0;
  batch_active_ = false;
  anticipating_ = false;
  antic_armed_ = false;
  antic_hit_ = nullptr;
  return out;
}

LegacyCfq::CfqQueue* LegacyCfq::queue_for(const Request& rq) {
  if (!rq.sync) return &async_queue_;
  auto [it, inserted] = sync_queues_.try_emplace(rq.ctx);
  if (inserted) {
    it->second.ctx = rq.ctx;
    it->second.sync = true;
  }
  return &it->second;
}

void LegacyCfq::enqueue_rr(CfqQueue* cq) {
  if (cq->in_rr || cq == active_) return;
  rr_.push_back(cq);
  cq->in_rr = true;
}

void LegacyCfq::add(Request* rq, Time now) {
  CfqQueue* cq = queue_for(*rq);
  if (cq->sync && cq->has_completion) {
    const double sample =
        static_cast<double>((now - cq->last_completion).ns());
    if (!cq->has_think) {
      cq->think_ewma_ns = sample;
      cq->has_think = true;
    } else {
      const double alpha = sample > cq->think_ewma_ns ? tun_.ewma_alpha_up
                                                      : tun_.ewma_alpha_down;
      cq->think_ewma_ns += alpha * (sample - cq->think_ewma_ns);
    }
    cq->has_completion = false;
  }
  cq->q.emplace(rq->lba, rq);
  ++count_;
  enqueue_rr(cq);
  if (cq == active_ && idling_) {
    idling_ = false;  // the owner came back within its idle window
  }
}

Request* LegacyCfq::take_from(CfqQueue* cq) {
  assert(!cq->q.empty());
  auto it = cq->q.lower_bound(cq->pos);
  if (it == cq->q.end()) it = cq->q.begin();  // wrap: one-way scan
  Request* rq = it->second;
  cq->q.erase(it);
  cq->pos = rq->end();
  --count_;
  return rq;
}

void LegacyCfq::deactivate(Time now) {
  (void)now;
  CfqQueue* q = active_;
  if (q == nullptr) return;
  // Clear active_ first: enqueue_rr refuses to queue the active queue.
  active_ = nullptr;
  idling_ = false;
  active_dispatched_ = 0;
  if (!q->q.empty()) enqueue_rr(q);
}

Request* LegacyCfq::dispatch(Time now) {
  while (true) {
    if (active_ != nullptr) {
      const bool slice_over = now >= slice_end_;
      const bool quantum_over =
          !active_->sync && active_dispatched_ >= tun_.async_quantum;
      if (slice_over || quantum_over) {
        deactivate(now);
      } else if (!active_->q.empty()) {
        idling_ = false;
        ++active_dispatched_;
        return take_from(active_);
      } else if (active_->sync &&
                 (!active_->has_think ||
                  active_->think_ewma_ns <=
                      tun_.idle_think_factor *
                          static_cast<double>(tun_.slice_idle.ns()))) {
        // Empty sync queue inside its slice: keep the disk idle briefly so
        // the owner's next sequential request does not lose the head — but
        // only for owners who historically come back within the window.
        if (!idling_) {
          idling_ = true;
          idle_until_ = now + tun_.slice_idle;
          if (idle_until_ > slice_end_) idle_until_ = slice_end_;
        }
        if (now < idle_until_) return nullptr;  // wakeup() says when
        deactivate(now);
      } else {
        deactivate(now);  // async queue drained: move on immediately
      }
      continue;
    }

    if (rr_.empty()) return nullptr;
    active_ = rr_.front();
    rr_.pop_front();
    active_->in_rr = false;
    active_dispatched_ = 0;
    idling_ = false;
    slice_end_ = now + (active_->sync ? tun_.slice_sync : tun_.slice_async);
  }
}

void LegacyCfq::on_complete(const Request& rq, Time now) {
  if (!rq.sync) return;
  auto it = sync_queues_.find(rq.ctx);
  if (it == sync_queues_.end()) return;
  it->second.has_completion = true;
  it->second.last_completion = now;
}

std::optional<Time> LegacyCfq::wakeup(Time) const {
  if (active_ != nullptr && idling_) return idle_until_;
  return std::nullopt;
}

std::vector<Request*> LegacyCfq::drain() {
  std::vector<Request*> out;
  out.reserve(count_);
  auto drain_queue = [&out](CfqQueue& cq) {
    for (auto& [lba, rq] : cq.q) {
      (void)lba;
      out.push_back(rq);
    }
    cq.q.clear();
    cq.in_rr = false;
  };
  for (auto& [ctx, cq] : sync_queues_) {
    (void)ctx;
    drain_queue(cq);
  }
  drain_queue(async_queue_);
  sync_queues_.clear();
  rr_.clear();
  active_ = nullptr;
  idling_ = false;
  count_ = 0;
  return out;
}

}  // namespace iosim::iosched::test
