#include "mapred/merge_op.hpp"

#include <algorithm>
#include <cassert>

#include "disk/disk_model.hpp"

namespace iosim::mapred {

void MergeOp::run(const VmHandle& vm, std::uint64_t io_ctx, MergeOpParams params,
                  iosched::CompletionFn on_done) {
  auto self = std::shared_ptr<MergeOp>(
      new MergeOp(vm, io_ctx, std::move(params), std::move(on_done)));
  if (self->total_in_ == 0) {
    // Degenerate: nothing to merge; complete asynchronously at "now".
    self->done_fired_ = true;
    auto cb = std::move(self->on_done_);
    vm.simr->after(sim::Time::zero(), [cb = std::move(cb), self, simr = vm.simr] {
      if (cb) cb(simr->now(), iosched::IoStatus::kOk);
    });
    return;
  }
  self->pump(self);
}

MergeOp::MergeOp(const VmHandle& vm, std::uint64_t io_ctx, MergeOpParams params,
                 iosched::CompletionFn on_done)
    : vm_(vm), io_ctx_(io_ctx), p_(std::move(params)), on_done_(std::move(on_done)) {
  cursors_.reserve(p_.inputs.size());
  for (const auto& in : p_.inputs) {
    if (in.bytes <= 0) continue;
    cursors_.push_back({in.vlba, in.bytes});
    total_in_ += in.bytes;
  }
  out_next_ = p_.out_vlba;
}

void MergeOp::pump(std::shared_ptr<MergeOp> self) {
  if (p_.cancelled && p_.cancelled()) failed_ = true;
  while (!failed_ && inflight_ < p_.window && read_issued_ < total_in_) {
    // Pick the next non-empty input round-robin.
    std::size_t tries = 0;
    while (cursors_[rr_].remaining == 0 && tries < cursors_.size()) {
      rr_ = (rr_ + 1) % cursors_.size();
      ++tries;
    }
    Cursor& c = cursors_[rr_];
    if (c.remaining == 0) break;
    const std::int64_t unit = std::min<std::int64_t>(p_.io_unit_bytes, c.remaining);
    const auto sectors = (unit + disk::kSectorBytes - 1) / disk::kSectorBytes;
    const disk::Lba at = c.next;
    c.next += sectors;
    c.remaining -= unit;
    rr_ = (rr_ + 1) % cursors_.size();
    read_issued_ += unit;
    ++inflight_;
    vm_.vm->submit_io(io_ctx_, at, sectors, iosched::Dir::kRead, /*sync=*/true,
                      [this, self, unit](sim::Time t, iosched::IoStatus st) {
                        --inflight_;
                        if (st != iosched::IoStatus::kOk) {
                          failed_ = true;
                          maybe_finish(t);
                          return;
                        }
                        unit_read_done(self, unit, t);
                        pump(self);
                      });
  }
  // A cancel with nothing in flight would otherwise never report back.
  if (failed_) maybe_finish(vm_.simr->now());
}

void MergeOp::unit_read_done(std::shared_ptr<MergeOp> self, std::int64_t unit_bytes,
                             sim::Time) {
  read_done_ += unit_bytes;
  if (p_.on_progress) p_.on_progress(read_done_, total_in_);

  ++cpu_write_inflight_;
  const auto cpu = sim::Time::from_ns(
      static_cast<std::int64_t>(p_.cpu_ns_per_byte * static_cast<double>(unit_bytes)));
  // One burst per unit read: inline in its EventFn (pointer, shared_ptr,
  // count), so the merge's CPU stage allocates nothing per unit.
  auto burst = [this, self, unit_bytes] {
    // Emit output for this unit (carry fractional bytes across units).
    write_pending_bytes_ +=
        static_cast<std::int64_t>(p_.write_ratio * static_cast<double>(unit_bytes));
    const std::int64_t out_unit = write_pending_bytes_;
    write_pending_bytes_ = 0;
    if (p_.cancelled && p_.cancelled()) failed_ = true;
    if (out_unit <= 0 || failed_) {
      --cpu_write_inflight_;
      maybe_finish(vm_.simr->now());
      return;
    }
    // Write in bios of at most io_unit_bytes, the last one carrying the
    // remainder, as IoStream does: with write_ratio > 1 one unit's output
    // would otherwise exceed the block layer's largest request. Each bio
    // holds one count of cpu_write_inflight_ until it completes.
    cpu_write_inflight_ +=
        static_cast<int>((out_unit + p_.io_unit_bytes - 1) / p_.io_unit_bytes) - 1;
    for (std::int64_t left = out_unit; left > 0;) {
      const std::int64_t bytes = std::min(left, p_.io_unit_bytes);
      left -= bytes;
      const auto sectors = (bytes + disk::kSectorBytes - 1) / disk::kSectorBytes;
      const disk::Lba at = out_next_;
      out_next_ += sectors;
      vm_.vm->submit_io(io_ctx_, at, sectors, iosched::Dir::kWrite, /*sync=*/false,
                        [this, self](sim::Time t2, iosched::IoStatus st) {
                          --cpu_write_inflight_;
                          if (st != iosched::IoStatus::kOk) failed_ = true;
                          maybe_finish(t2);
                        });
    }
  };
  static_assert(sim::EventFn::fits_inline<decltype(burst)>());
  vm_.cpu->run(cpu, std::move(burst));
}

void MergeOp::maybe_finish(sim::Time t) {
  if (done_fired_) return;
  const bool drained = inflight_ == 0 && cpu_write_inflight_ == 0;
  if ((failed_ && drained) ||
      (read_done_ == total_in_ && drained)) {
    done_fired_ = true;
    if (on_done_) {
      on_done_(t, failed_ ? iosched::IoStatus::kError : iosched::IoStatus::kOk);
    }
  }
}

}  // namespace iosim::mapred
