#include "blk/block_layer.hpp"

#include <algorithm>
#include <cassert>

#include "check/check.hpp"
#include "obs/attribution.hpp"
#include "trace/trace.hpp"

namespace iosim::blk {

BlockLayer::BlockLayer(sim::Simulator& simr, RequestSink& sink, BlockLayerConfig cfg)
    : simr_(simr), sink_(sink), cfg_(std::move(cfg)) {
  sched_ = iosched::make_scheduler(cfg_.scheduler, cfg_.tunables);
  sink_.set_on_complete([this](Request* rq, Time now) { on_sink_complete(rq, now); });
  sink_.set_on_ready([this](Time) { kick(); });
  if (auto* tr = trace::tracer()) {
    // Zero-duration installation span: the elevator this layer boots with.
    // Runtime switches appear as B/E spans around the drain+freeze window.
    tr->complete(tr->track(cfg_.name), tr->ids.elv_switch, tr->ids.cat_blk,
                 simr_.now(), simr_.now(), tr->ids.target,
                 static_cast<std::int64_t>(cfg_.scheduler));
  }
}

void BlockLayer::submit(Bio bio) {
  const std::int64_t sectors = bio.sectors;
  submit_segments(std::move(bio), sectors);
}

void BlockLayer::submit_segments(Bio&& run, std::int64_t segment_sectors) {
  assert(run.sectors > 0);
  assert(segment_sectors > 0 && segment_sectors <= cfg_.max_request_sectors);
  const Time now = simr_.now();
  const Lba end = run.lba + run.sectors;
  Lba lba = run.lba;
  // Whether anything watches this run's segments one by one: the auditor,
  // the tracer, or Dom0 attribution stamping the run's handle. None of them
  // can be installed or removed while the run is being queued. Unobserved,
  // a segment costs only its counter, added in bulk on a merge.
  const bool observed =
      check::auditor() != nullptr || trace::tracer() != nullptr ||
      (cfg_.obs_role == obs::LayerRole::kDom0 && run.attr != obs::kNoAttr &&
       obs::attribution() != nullptr);
  // The request this run's previous segment started, if it did: its last
  // completion entry is this run's, and segments merging into it next
  // extend that entry.
  const Request* started = nullptr;
  while (lba < end) {
    // The queue is stopped during an elevator switch: arriving bios are
    // held back and their submitters stall — the dominant component of
    // the paper's measured switch cost.
    if (draining_ || frozen_) {
      run.lba = lba;
      run.sectors = end - lba;
      held_.push_back({std::move(run), segment_sectors});
      account_busy();
      return;
    }

    const std::int64_t sectors = std::min(segment_sectors, end - lba);
    ++counters_.bios_submitted;
    if (observed) note_bio(run, lba, sectors, now);

    // Back-merge: a queued request of the same direction/sync/context
    // ending exactly where this bio starts grows to absorb it (the common
    // sequential pattern; the kernel's dominant merge path).
    if (Request* rq = merge_idx_.find(lba)) {
      if (rq->dir == run.dir && rq->sync == run.sync && rq->ctx == run.ctx &&
          rq->sectors + sectors <= cfg_.max_request_sectors) {
        lba = back_merge(rq, run, lba, end, segment_sectors, observed, rq == started, now);
        continue;
      }
    }

    Request* rq = acquire_request();
    rq->id = next_rq_id_++;
    rq->lba = lba;
    rq->sectors = sectors;
    rq->dir = run.dir;
    rq->sync = run.sync;
    rq->ctx = run.ctx;
    rq->submit = now;
    lba += sectors;
    if (run.on_complete) {
      rq->completions.push_back(
          {lba == end ? std::move(run.on_complete) : run.on_complete, 1});
    }
    if (cfg_.obs_role == obs::LayerRole::kGuest) {
      // A fresh guest request starts a new attribution record (merged bios
      // ride on it; the record tracks the request, not individual bios).
      if (auto* at = obs::attribution()) {
        rq->attrs.push_back(at->on_submit(cfg_.obs_host, cfg_.obs_vm,
                                          rq->dir == iosched::Dir::kWrite,
                                          rq->sync, rq->lba, rq->sectors, now,
                                          rq->ctx));
      }
    } else if (run.attr != obs::kNoAttr) {
      rq->attrs.push_back(run.attr);
    }
    merge_idx_.emplace(rq->end(), rq);
    ++queued_by_dir_[static_cast<int>(rq->dir)];
    sched_->add(rq, now);
    if (auto* ck = check::auditor()) {
      ck->on_queue_accounting(this, cfg_.name, queued_by_dir_[0],
                              queued_by_dir_[1], sched_->size(), now.ns());
    }
    account_busy();
    started = rq;
    // May dispatch the new request at once; then the next segment finds
    // no request to merge into and starts another.
    kick();
  }
}

void BlockLayer::note_bio(const Bio& bio, Lba lba, std::int64_t sectors, Time now) {
  if (auto* ck = check::auditor()) {
    ck->on_bio_submitted(this, cfg_.name, bio.ctx, now.ns());
  }
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track(cfg_.name), tr->ids.bio_submit, tr->ids.cat_blk, now,
                tr->ids.lba, lba, tr->ids.sectors, sectors);
  }
  // Dom0 arrival stamp. Taken before the bio joins/creates a request so the
  // "who was ahead" snapshot excludes the arriving segment itself; the
  // Attribution keeps only the first segment's stamp per guest request.
  if (cfg_.obs_role == obs::LayerRole::kDom0 && bio.attr != obs::kNoAttr) {
    if (auto* at = obs::attribution()) {
      at->on_dom0_arrive(bio.attr, now,
                         queued_by_dir_[static_cast<int>(iosched::Dir::kRead)],
                         queued_by_dir_[static_cast<int>(iosched::Dir::kWrite)],
                         in_flight_);
    }
  }
}

Lba BlockLayer::back_merge(Request* rq, Bio& run, Lba lba, Lba end,
                           std::int64_t segment_sectors, bool observed, bool extend,
                           Time now) {
  merge_idx_.erase(lba);
  // A Dom0 request absorbs the records of every guest request whose
  // segments merged into it (distinct handles only; one guest request
  // contributes many segments).
  if (run.attr != obs::kNoAttr &&
      std::find(rq->attrs.begin(), rq->attrs.end(), run.attr) == rq->attrs.end()) {
    rq->attrs.push_back(run.attr);
  }
  // A merge never kicks and never touches the elevator, so a per-segment
  // submit of the next segment would find `rq` again under its new end key
  // — unless the merge reached max_request_sectors, or another queued
  // request already holds that key (the index's first writer wins, so `rq`
  // would get no entry and the next lookup would find the other request).
  // Both stop the run here; the caller goes on from `lba`.
  std::uint32_t merged = 0;
  for (;;) {
    const std::int64_t sectors = std::min(segment_sectors, end - lba);
    rq->sectors += sectors;
    lba += sectors;
    ++merged;
    if (observed) {
      if (auto* tr = trace::tracer()) {
        tr->instant(tr->track(cfg_.name), tr->ids.bio_merge, tr->ids.cat_blk, now,
                    tr->ids.lba, rq->lba, tr->ids.sectors, rq->sectors);
      }
      if (auto* ck = check::auditor()) {
        ck->on_queue_accounting(this, cfg_.name, queued_by_dir_[0],
                                queued_by_dir_[1], sched_->size(), now.ns());
      }
    }
    if (lba == end) break;
    const std::int64_t next = std::min(segment_sectors, end - lba);
    if (rq->sectors + next > cfg_.max_request_sectors || merge_idx_.find(lba) != nullptr) {
      break;
    }
    if (observed) note_bio(run, lba, next, now);
  }
  // The caller counted the first merged segment as submitted.
  counters_.bios_submitted += merged - 1;
  counters_.back_merges += merged;
  rq->n_bios += merged;
  merge_idx_.emplace(rq->end(), rq);
  if (run.on_complete) {
    if (extend) {
      rq->completions.back().bios += merged;
    } else {
      rq->completions.push_back(
          {lba == end ? std::move(run.on_complete) : run.on_complete, merged});
    }
  }
  account_busy();
  return lba;
}

Request* BlockLayer::acquire_request() { return pool_.acquire(); }

void BlockLayer::release_request(Request* rq) {
  // Everything the next user does not overwrite goes back to its initial
  // value. Clearing here (not at reuse) destroys the callbacks' captures
  // right after they ran, as freeing the request used to.
  rq->n_bios = 1;
  rq->status = iosched::IoStatus::kOk;
  rq->dispatch = Time{};
  rq->completions.clear();
  rq->attrs.clear();
  pool_.release(rq);
}

void BlockLayer::switch_scheduler(SchedulerKind kind) {
  switch_target_ = kind;
  if (draining_) {
    if (auto* tr = trace::tracer()) {
      tr->instant(tr->track(cfg_.name), tr->ids.elv_retarget, tr->ids.cat_blk,
                  simr_.now(), tr->ids.target, static_cast<std::int64_t>(kind));
    }
    return;  // a switch is already in progress: retarget it
  }
  ++counters_.scheduler_switches;
  draining_ = true;
  if (auto* tr = trace::tracer()) {
    tr->begin(tr->track(cfg_.name), tr->ids.elv_switch, tr->ids.cat_blk,
              simr_.now(), tr->ids.target, static_cast<std::int64_t>(kind));
  }
  // A switch counts as busy time even on an empty queue: the quiesce stalls
  // submitters, and the busy integral must charge that to the switch.
  account_busy();
  // The old discipline keeps dispatching (kick() continues to run) until it
  // and the device are empty; maybe_finish_switch() completes the swap.
  maybe_finish_switch();
}

void BlockLayer::maybe_finish_switch() {
  if (!draining_) return;
  if (!sched_->empty() || in_flight_ > 0) {
    kick();  // keep the drain moving (also re-arms idle wakeups)
    return;
  }
  // Drained: install the new elevator, pay the re-init stall, then release
  // everything that queued up behind the switch.
  draining_ = false;
  sched_ = iosched::make_scheduler(switch_target_, cfg_.tunables);
  merge_idx_.clear();
  frozen_ = true;
  if (auto* tr = trace::tracer()) {
    std::int64_t held_bios = 0;  // a held run counts as its segments
    for (const HeldRun& h : held_) {
      held_bios += (h.run.sectors + h.segment_sectors - 1) / h.segment_sectors;
    }
    tr->instant(tr->track(cfg_.name), tr->ids.drain_done, tr->ids.cat_blk,
                simr_.now(), tr->ids.queued, held_bios);
  }
  if (wakeup_ev_ != sim::kInvalidEvent) {
    simr_.cancel(wakeup_ev_);
    wakeup_ev_ = sim::kInvalidEvent;
  }
  if (freeze_ev_ != sim::kInvalidEvent) simr_.cancel(freeze_ev_);
  freeze_ev_ = simr_.after(cfg_.switch_freeze, [this] {
    freeze_ev_ = sim::kInvalidEvent;
    frozen_ = false;
    if (auto* tr = trace::tracer()) {
      tr->end(tr->track(cfg_.name), tr->ids.elv_switch, simr_.now());
    }
    std::vector<HeldRun> held = std::move(held_);
    held_.clear();
    for (auto& h : held) submit_segments(std::move(h.run), h.segment_sectors);
    account_busy();
    kick();
  });
}

void BlockLayer::account_busy() {
  const Time now = simr_.now();
  if (busy_) {
    counters_.busy_ns += static_cast<std::uint64_t>((now - busy_mark_).ns());
  }
  busy_mark_ = now;
  busy_ = in_flight_ > 0 || !sched_->empty() || !held_.empty() || draining_ ||
          frozen_;
}

void BlockLayer::arm_wakeup() {
  const auto t = sched_->wakeup(simr_.now());
  if (!t.has_value()) return;
  if (wakeup_ev_ != sim::kInvalidEvent) simr_.cancel(wakeup_ev_);
  wakeup_ev_ = simr_.at(*t, [this] {
    wakeup_ev_ = sim::kInvalidEvent;
    kick();
  });
}

void BlockLayer::kick() {
  ++kicks_;
  if (frozen_) return;
  while (sink_.can_accept()) {
    Request* rq = sched_->dispatch(simr_.now());
    if (rq == nullptr) {
      if (!sched_->empty()) arm_wakeup();
      return;
    }
    merge_idx_.erase(rq->end());
    ++counters_.requests_dispatched;
    ++in_flight_;
    assert(queued_by_dir_[static_cast<int>(rq->dir)] > 0);
    --queued_by_dir_[static_cast<int>(rq->dir)];
    rq->dispatch = simr_.now();
    if (auto* ck = check::auditor()) {
      ck->on_request_dispatched(this, cfg_.name, rq->id, rq->dispatch.ns());
      ck->on_queue_accounting(this, cfg_.name, queued_by_dir_[0],
                              queued_by_dir_[1], sched_->size(),
                              rq->dispatch.ns());
    }
    if (cfg_.obs_role != obs::LayerRole::kNone && !rq->attrs.empty()) {
      if (auto* at = obs::attribution()) {
        const bool guest = cfg_.obs_role == obs::LayerRole::kGuest;
        for (const auto h : rq->attrs) {
          guest ? at->on_guest_dispatch(h, rq->dispatch)
                : at->on_dom0_dispatch(h, rq->dispatch);
        }
      }
    }
    sink_.submit(rq, simr_.now());
  }
}

void BlockLayer::on_sink_complete(Request* rq, Time now) {
  if (auto* ck = check::auditor()) {
    ck->on_request_completed(this, cfg_.name, rq->id, rq->n_bios,
                             rq->status == iosched::IoStatus::kOk, now.ns());
  }
  assert(in_flight_ > 0);
  --in_flight_;
  ++counters_.requests_completed;
  if (rq->status != iosched::IoStatus::kOk) {
    ++counters_.requests_failed;
    if (auto* tr = trace::tracer()) {
      tr->instant(tr->track(cfg_.name), tr->ids.io_error, tr->ids.cat_blk, now,
                  tr->ids.lba, rq->lba, tr->ids.sectors, rq->sectors);
    }
  }
  counters_.bytes_completed[static_cast<int>(rq->dir)] += rq->bytes();
  sched_->on_complete(*rq, now);
  if (cfg_.obs_role != obs::LayerRole::kNone && !rq->attrs.empty()) {
    // Dom0: stamp media completion (a guest request's last segment wins).
    // Guest: the request is done end to end — fold the waterfall and
    // recycle the record (safe: every Dom0 segment completed before us).
    if (auto* at = obs::attribution()) {
      const bool guest = cfg_.obs_role == obs::LayerRole::kGuest;
      for (const auto h : rq->attrs) {
        guest ? at->on_complete(h, now) : at->on_dom0_complete(h, now);
      }
    }
  }
  if (auto* tr = trace::tracer()) {
    const auto track = tr->track(cfg_.name);
    const bool read = rq->dir == iosched::Dir::kRead;
    // Whole block-layer residence (submit -> complete) ...
    tr->complete(track, read ? tr->ids.rq_read : tr->ids.rq_write, tr->ids.cat_blk,
                 rq->submit, now, tr->ids.lba, rq->lba, tr->ids.sectors, rq->sectors);
    // ... and the in-device portion (dispatch -> complete).
    tr->complete(track, tr->ids.rq_service, tr->ids.cat_blk, rq->dispatch, now,
                 tr->ids.lba, rq->lba);
  }

  // Fire waiter callbacks, then recycle. Callbacks may submit new bios into
  // this layer: those get other requests, because this one is not back in
  // the pool yet (and, dispatched, it is no longer in the merge index).
  for (const auto& c : rq->completions) c.fn(now, rq->status, c.bios);
  release_request(rq);

  account_busy();
  if (draining_) {
    maybe_finish_switch();
  } else {
    kick();
  }
}

}  // namespace iosim::blk
