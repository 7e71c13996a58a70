#include "iosched/cfq.hpp"

#include <cassert>

namespace iosim::iosched {

CfqScheduler::CfqQueue* CfqScheduler::queue_for(const Request& rq) {
  if (!rq.sync) return &async_queue_;
  auto [it, inserted] = sync_queues_.try_emplace(rq.ctx);
  if (inserted) {
    it->second.ctx = rq.ctx;
    it->second.sync = true;
  }
  return &it->second;
}

void CfqScheduler::enqueue_rr(CfqQueue* cq) {
  if (cq->in_rr || cq == active_) return;
  rr_.push_back(cq);
  cq->in_rr = true;
}

void CfqScheduler::add(Request* rq, Time now) {
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
  cq->q.insert(rq);
  ++count_;
  enqueue_rr(cq);
  if (cq == active_ && idling_) {
    idling_ = false;  // the owner came back within its idle window
  }
}

Request* CfqScheduler::take_from(CfqQueue* cq) {
  assert(!cq->q.empty());
  const auto it = cq->q.lower_bound_wrap(cq->pos);  // one-way scan
  Request* rq = it->rq;
  cq->q.erase(it);
  cq->pos = rq->end();
  --count_;
  return rq;
}

void CfqScheduler::deactivate(Time now) {
  (void)now;
  CfqQueue* q = active_;
  if (q == nullptr) return;
  // Clear active_ first: enqueue_rr refuses to queue the active queue.
  active_ = nullptr;
  idling_ = false;
  active_dispatched_ = 0;
  if (!q->q.empty()) enqueue_rr(q);
}

Request* CfqScheduler::dispatch(Time now) {
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
    active_ = rr_.pop_front();
    active_->in_rr = false;
    active_dispatched_ = 0;
    idling_ = false;
    slice_end_ = now + (active_->sync ? tun_.slice_sync : tun_.slice_async);
  }
}

void CfqScheduler::on_complete(const Request& rq, Time now) {
  if (!rq.sync) return;
  auto it = sync_queues_.find(rq.ctx);
  if (it == sync_queues_.end()) return;
  it->second.has_completion = true;
  it->second.last_completion = now;
}

std::optional<Time> CfqScheduler::wakeup(Time) const {
  if (active_ != nullptr && idling_) return idle_until_;
  return std::nullopt;
}

std::vector<Request*> CfqScheduler::drain() {
  std::vector<Request*> out;
  out.reserve(count_);
  auto drain_queue = [&out](CfqQueue& cq) {
    for (const LbaQueue::Entry& e : cq.q) out.push_back(e.rq);
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

}  // namespace iosim::iosched
