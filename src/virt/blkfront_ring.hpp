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
// (DESIGN.md §8.7). Going in, one hop event submits all of a guest
// request's segments to Dom0 in order. Coming back, a segment completion
// joins the ring's newest pending return batch when that batch fires at the
// same instant and no event has been scheduled since it was opened; else it
// opens a new batch with its own event. A per-segment hop event in either
// case would have fired back to back with its predecessors, so the batch
// runs the same calls in the same order and every result is unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "blk/block_layer.hpp"
#include "blk/request_sink.hpp"
#include "check/check.hpp"
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

namespace detail {

/// FIFO over a power-of-two ring buffer. Construction allocates nothing and
/// the buffer only grows, so once it has reached the ring's peak backlog
/// pushes and pops allocate nothing either.
template <class T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  T& back() { return buf_[(head_ + size_ - 1) & (buf_.size() - 1)]; }
  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }
  T pop_front() {
    const T v = buf_[head_];
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

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
  /// The request crossed the ring: split it into blkif segments, each a Dom0
  /// bio. Adjacent segments of one stream re-merge in the Dom0 elevator when
  /// they queue up there.
  void forward(Request* rq) {
    for (disk::Lba seg_lba = rq->lba; seg_lba < rq->end();
         seg_lba += p_.max_segment_sectors) {
      blk::Bio bio;
      bio.lba = image_base_ + seg_lba;
      bio.sectors = std::min<std::int64_t>(p_.max_segment_sectors, rq->end() - seg_lba);
      bio.dir = rq->dir;
      bio.sync = rq->sync;
      bio.ctx = vm_ctx_;
      // Every segment carries the guest request's attribution handle so
      // the Dom0 layer can stamp arrival/dispatch/completion on it.
      bio.attr = rq->attrs.empty() ? obs::kNoAttr : rq->attrs.front();
      bio.on_complete = [this, rq](Time, blk::IoStatus st) {
        // Any failed segment fails the whole guest request (blkback
        // reports one status per ring request).
        if (st != blk::IoStatus::kOk) rq->status = st;
        send_back(rq);
      };
      dom0_.submit(std::move(bio));
    }
  }

  /// One segment of `rq` completed in Dom0; its response crosses back.
  void send_back(Request* rq) {
    const Time arrive = simr_.now() + p_.hop_latency;
    if (batches_.empty() || arrive != open_arrive_ || simr_.scheduled() != open_mark_) {
      simr_.after(p_.hop_latency, [this] { receive(); });
      batches_.push_back(0);
      open_arrive_ = arrive;
      open_mark_ = simr_.scheduled();
    }
    ++batches_.back();
    returns_.push_back(rq);
  }

  /// The oldest return batch arrived: retire its segments in FIFO order.
  void receive() {
    for (int n = batches_.pop_front(); n > 0; --n) {
      Request* rq = returns_.pop_front();
      --outstanding_;
      if (auto* ck = check::auditor()) {
        ck->on_ring_complete(this, outstanding_, simr_.now().ns());
      }
      if (--rq->sink_pending == 0) {
        complete(rq, simr_.now());
      }
      ready(simr_.now());
    }
  }

  sim::Simulator& simr_;
  BlockLayer& dom0_;
  std::uint64_t vm_ctx_;
  disk::Lba image_base_;
  RingParams p_;
  int outstanding_ = 0;
  // Segment responses on their way back, oldest first, and the size of each
  // pending return batch. Batches fire in FIFO order: the hop latency is
  // constant, and equal arrival times fire in scheduling order.
  detail::RingFifo<Request*> returns_;
  detail::RingFifo<int> batches_;
  // Arrival time of the newest batch, and Simulator::scheduled() right after
  // its event was scheduled.
  Time open_arrive_;
  std::uint64_t open_mark_ = 0;
};

}  // namespace iosim::virt
