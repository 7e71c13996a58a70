// iosim: the Xen split-driver block path.
//
// The guest block layer dispatches into this sink, which models the
// blkfront/blkback shared ring: guest requests are split into ring segments
// of at most 11 pages (44 KB) — the blkif protocol limit — each crossing
// the ring with a small grant/hypercall latency and being re-submitted into
// the Dom0 block layer with (a) the LBA translated into the VM's disk-image
// extent and (b) the issuing context rewritten to the VM id. The Dom0
// elevator therefore sees each VM as one "process" issuing 44 KB bios (the
// paper's premise: "VMM treats all the VMs as process"), and its merging /
// sorting quality decides how much of the stream's sequentiality survives —
// which is exactly why the VMM-level scheduler choice matters so much.
//
// Event cost: one simulator event per ring crossing, not one per segment
// (DESIGN.md §8.7). Going in, one hop event hands the whole guest request
// to Dom0 in one call, `BlockLayer::submit_segments`, which queues its
// segments exactly as one submit per segment in order would (§8.6). Coming
// back, Dom0 completes the segments that merged into one Dom0 request with
// one call carrying their count, and the ring queues them as one return
// entry. The entry joins the ring's newest pending return batch when that
// batch fires at the same instant and no event has been scheduled since it
// was opened; else it opens a new batch with its own event. A per-segment
// hop event in either case would have fired back to back with its
// predecessors, so the batch retires the same segments in the same order,
// one at a time, and every result is unchanged. After each retired segment
// the ring asks the guest layer for more only if it can accept more: with
// the ring still full, the guest's kick() would return at once.
#pragma once

#include <cassert>
#include <cstdint>

#include "blk/block_layer.hpp"
#include "blk/request_sink.hpp"
#include "check/check.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/simulator.hpp"

namespace iosim::virt {

using blk::BlockLayer;
using iosched::Request;
using sim::Time;

struct RingParams {
  /// Outstanding ring segments per VM (blkif ring: 32 requests of up to 11
  /// segments; we count segments, the unit that actually queues in Dom0).
  int slots = 32;
  /// blkif segment limit: 11 pages = 88 sectors = 44 KB.
  std::int64_t max_segment_sectors = 88;
  /// One-way latency of a request/response crossing the ring (grant map +
  /// event channel). ~50 us for the paper's era.
  Time hop_latency = Time::from_us(50);
};

class BlkfrontRing final : public blk::RequestSink {
 public:
  BlkfrontRing(sim::Simulator& simr, BlockLayer& dom0, std::uint64_t vm_ctx,
               disk::Lba image_base, RingParams params)
      : simr_(simr), dom0_(dom0), vm_ctx_(vm_ctx), image_base_(image_base), p_(params) {}

  bool can_accept() const override { return outstanding_ < p_.slots; }

  void submit(Request* rq, Time now) override {
    (void)now;
    const auto n_segs = static_cast<int>(
        (rq->sectors + p_.max_segment_sectors - 1) / p_.max_segment_sectors);
    if (auto* ck = check::auditor()) {
      ck->on_ring_submit(this, vm_ctx_, outstanding_, n_segs, p_.slots,
                         simr_.now().ns());
    }
    outstanding_ += n_segs;
    rq->sink_pending = n_segs;
    simr_.after(p_.hop_latency, [this, rq] { forward(rq); });
  }

  int outstanding() const { return outstanding_; }

 private:
  /// The request crossed the ring: Dom0 takes it as one run of blkif
  /// segments, each a Dom0 bio. Adjacent segments of one stream re-merge in
  /// the Dom0 elevator when they queue up there.
  void forward(Request* rq) {
    blk::Bio run;
    run.lba = image_base_ + rq->lba;
    run.sectors = rq->sectors;
    run.dir = rq->dir;
    run.sync = rq->sync;
    run.ctx = vm_ctx_;
    // Every segment carries the guest request's attribution handle so the
    // Dom0 layer can stamp arrival/dispatch/completion on it.
    run.attr = rq->attrs.empty() ? obs::kNoAttr : rq->attrs.front();
    // Runs once per Dom0 request the run reached, for its `segs` segments.
    run.on_complete = [this, rq](Time, blk::IoStatus st, std::uint32_t segs) {
      // Any failed segment fails the whole guest request (blkback reports
      // one status per ring request).
      if (st != blk::IoStatus::kOk) rq->status = st;
      send_back(rq, segs);
    };
    dom0_.submit_segments(std::move(run), p_.max_segment_sectors);
  }

  /// `segs` segments of `rq` completed in Dom0; their responses cross back.
  void send_back(Request* rq, std::uint32_t segs) {
    const Time arrive = simr_.now() + p_.hop_latency;
    if (batches_.empty() || arrive != open_arrive_ || simr_.scheduled() != open_mark_) {
      simr_.after(p_.hop_latency, [this] { receive(); });
      batches_.push_back(0);
      open_arrive_ = arrive;
      open_mark_ = simr_.scheduled();
    }
    ++batches_.back();
    returns_.push_back({rq, segs});
  }

  /// The oldest return batch arrived: retire its segments in FIFO order.
  void receive() {
    const Time now = simr_.now();
    for (int n = batches_.pop_front(); n > 0; --n) {
      const Return r = returns_.pop_front();
      for (std::uint32_t s = r.segs; s > 0; --s) {
        --outstanding_;
        if (auto* ck = check::auditor()) {
          ck->on_ring_complete(this, outstanding_, now.ns());
        }
        if (--r.rq->sink_pending == 0) {
          // The guest request's last segment: `r.rq` goes back to its pool.
          assert(s == 1);
          complete(r.rq, now);
        }
        if (can_accept()) ready(now);
      }
    }
  }

  sim::Simulator& simr_;
  BlockLayer& dom0_;
  std::uint64_t vm_ctx_;
  disk::Lba image_base_;
  RingParams p_;
  int outstanding_ = 0;
  // Segment responses on their way back, oldest first: per entry a guest
  // request and how many of its segments one Dom0 completion returned.
  // `batches_` holds the number of entries in each pending return batch.
  // Batches fire in FIFO order: the hop latency is constant, and equal
  // arrival times fire in scheduling order.
  struct Return {
    Request* rq;
    std::uint32_t segs;
  };
  sim::RingFifo<Return> returns_;
  sim::RingFifo<int> batches_;
  // Arrival time of the newest batch, and Simulator::scheduled() right after
  // its event was scheduled.
  Time open_arrive_;
  std::uint64_t open_mark_ = 0;
};

}  // namespace iosim::virt
