// iosim: helper for issuing a large sequential transfer as a stream of
// fixed-size bios with a bounded window of outstanding requests — the shape
// a real process produces through readahead (reads) or writeback (writes).
#pragma once

#include "sim/event_fn.hpp"
#include "virt/domu.hpp"

namespace iosim::virt {

struct IoStreamParams {
  /// Bio size (sectors). 512 sectors = 256 KB, the effective request size a
  /// 2.6-era filesystem produced for streaming I/O.
  std::int64_t unit_sectors = 512;
  /// Outstanding bios: 2 for sync reads (readahead depth), larger for
  /// writeback-style async writes.
  int window = 2;
  /// Polled before issuing each bio. When it returns true the stream stops
  /// issuing, drains in-flight bios and reports kError — the issuing
  /// process was killed, so no further I/O may reach the disk.
  sim::SmallFn<bool()> cancelled;
};

/// Fire-and-forget sequential transfer on a DomU virtual disk;
/// `on_done(t, status)` is invoked once after the last bio completes. On the
/// first bio error the stream stops issuing new bios, drains the ones
/// already in flight, and reports kError — the shape of a read() loop
/// hitting EIO. A stream cancelled while nothing is in flight ends without a
/// report.
///
/// Streams come from their VM's pool (DomU::streams()): a stream goes back
/// to the pool when its last bio is back, before `on_done` runs, so the bio
/// callbacks capture one raw pointer and a stream costs no allocation once
/// the pool is warm.
class IoStream {
 public:
  /// Issue `bytes` at `vlba` for task `ctx`. Rounds the byte count up to
  /// whole sectors.
  static void run(DomU& vm, std::uint64_t ctx, disk::Lba vlba, std::int64_t bytes,
                  iosched::Dir dir, bool sync, IoStreamParams params,
                  iosched::CompletionFn on_done);

 private:
  void pump();
  void bio_done(sim::Time t, iosched::IoStatus st);
  /// Back to the VM's pool; the object may be reused at once.
  void release();

  DomU* vm_ = nullptr;
  std::uint64_t ctx_ = 0;
  disk::Lba next_lba_ = 0;
  disk::Lba end_lba_ = 0;
  iosched::Dir dir_ = iosched::Dir::kRead;
  bool sync_ = false;
  bool failed_ = false;
  int outstanding_ = 0;
  IoStreamParams p_;
  iosched::CompletionFn on_done_;
};

}  // namespace iosim::virt
