#include "virt/io_stream.hpp"

#include <cassert>

#include "disk/disk_model.hpp"

namespace iosim::virt {

void IoStream::run(DomU& vm, std::uint64_t ctx, disk::Lba vlba, std::int64_t bytes,
                   iosched::Dir dir, bool sync, IoStreamParams params,
                   iosched::CompletionFn on_done) {
  assert(bytes > 0);
  const auto sectors =
      (bytes + disk::kSectorBytes - 1) / disk::kSectorBytes;
  IoStream* s = vm.streams().acquire();
  s->vm_ = &vm;
  s->ctx_ = ctx;
  s->next_lba_ = vlba;
  s->end_lba_ = vlba + sectors;
  s->dir_ = dir;
  s->sync_ = sync;
  s->failed_ = false;
  s->outstanding_ = 0;
  s->p_ = std::move(params);
  s->on_done_ = std::move(on_done);
  s->pump();
  // Cancelled before the first bio: nothing will call back.
  if (s->outstanding_ == 0) s->release();
}

void IoStream::pump() {
  if (p_.cancelled && p_.cancelled()) failed_ = true;
  while (!failed_ && outstanding_ < p_.window && next_lba_ < end_lba_) {
    const disk::Lba lba = next_lba_;
    const std::int64_t n = std::min<std::int64_t>(p_.unit_sectors, end_lba_ - lba);
    next_lba_ += n;
    ++outstanding_;
    vm_->submit_io(ctx_, lba, n, dir_, sync_,
                   [this](sim::Time t, iosched::IoStatus st) { bio_done(t, st); });
  }
}

void IoStream::bio_done(sim::Time t, iosched::IoStatus st) {
  --outstanding_;
  if (st != iosched::IoStatus::kOk) failed_ = true;
  if (!failed_ && next_lba_ < end_lba_) {
    pump();
    // Cancelled with nothing left in flight: the stream ends unreported.
    if (outstanding_ == 0) release();
    return;
  }
  if (outstanding_ > 0) return;
  // The last bio is back. The callback may start a stream on this VM, which
  // can reuse this object: take what it needs first.
  const iosched::CompletionFn done = std::move(on_done_);
  const bool failed = failed_;
  release();
  if (done) done(t, failed ? iosched::IoStatus::kError : iosched::IoStatus::kOk);
}

void IoStream::release() {
  p_.cancelled = nullptr;
  on_done_ = nullptr;
  vm_->streams().release(this);
}

}  // namespace iosim::virt
