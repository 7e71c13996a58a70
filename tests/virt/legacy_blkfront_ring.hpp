// Test-only reference copy of the blkfront ring as it was before each ring
// crossing became one simulator event: one hop event per 44 KB segment going
// into Dom0, one more per segment coming back, and a shared_ptr<int> counting
// a guest request's segments still in flight. Apart from the class name, the
// namespace and the reuse of the production RingParams, the code is the old
// ring verbatim. ring_oracle_test.cpp drives it and the production ring with
// identical guest bio streams and requires identical results.
#pragma once

#include <memory>

#include "blk/block_layer.hpp"
#include "blk/request_sink.hpp"
#include "check/check.hpp"
#include "sim/simulator.hpp"
#include "virt/blkfront_ring.hpp"

namespace iosim::virt::test {

using blk::BlockLayer;
using iosched::Request;
using sim::Time;

class LegacyBlkfrontRing final : public blk::RequestSink {
 public:
  LegacyBlkfrontRing(sim::Simulator& simr, BlockLayer& dom0, std::uint64_t vm_ctx,
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

    // Split into blkif segments; each becomes a Dom0 bio. Adjacent segments
    // of one stream re-merge in the Dom0 elevator when they queue up there.
    auto remaining = std::make_shared<int>(n_segs);
    for (int s = 0; s < n_segs; ++s) {
      const disk::Lba seg_lba = rq->lba + static_cast<disk::Lba>(s) * p_.max_segment_sectors;
      const std::int64_t seg_sectors =
          std::min<std::int64_t>(p_.max_segment_sectors, rq->end() - seg_lba);
      simr_.after(p_.hop_latency, [this, rq, seg_lba, seg_sectors, remaining] {
        blk::Bio bio;
        bio.lba = image_base_ + seg_lba;
        bio.sectors = seg_sectors;
        bio.dir = rq->dir;
        bio.sync = rq->sync;
        bio.ctx = vm_ctx_;
        // Every segment carries the guest request's attribution handle so
        // the Dom0 layer can stamp arrival/dispatch/completion on it.
        bio.attr = rq->attrs.empty() ? obs::kNoAttr : rq->attrs.front();
        bio.on_complete = [this, rq, remaining](Time, blk::IoStatus st) {
          // Any failed segment fails the whole guest request (blkback
          // reports one status per ring request).
          if (st != blk::IoStatus::kOk) rq->status = st;
          simr_.after(p_.hop_latency, [this, rq, remaining] {
            --outstanding_;
            if (auto* ck = check::auditor()) {
              ck->on_ring_complete(this, outstanding_, simr_.now().ns());
            }
            if (--*remaining == 0) {
              complete(rq, simr_.now());
            }
            ready(simr_.now());
          });
        };
        dom0_.submit(std::move(bio));
      });
    }
  }

  int outstanding() const { return outstanding_; }

 private:
  sim::Simulator& simr_;
  BlockLayer& dom0_;
  std::uint64_t vm_ctx_;
  disk::Lba image_base_;
  RingParams p_;
  int outstanding_ = 0;
};

}  // namespace iosim::virt::test
