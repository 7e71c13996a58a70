// iosim: a k-way merge pass as an I/O + CPU pipeline.
//
// Reads `inputs` round-robin in io-unit chunks (the alternation across
// segment files is what makes merge reads seeky), runs the per-byte CPU cost
// on the VM's vCPU, and writes `write_ratio` output bytes per input byte as
// an async stream. Used for map-side spill merges and the reduce-side
// merge/reduce phase (where write_ratio is the workload's reduce output
// ratio).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mapred/cluster_env.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace iosim::mapred {

struct MergeInput {
  disk::Lba vlba = 0;
  std::int64_t bytes = 0;
};

struct MergeOpParams {
  std::vector<MergeInput> inputs;
  /// Destination of the merged output on the same VM (ignored if the
  /// effective output size is zero).
  disk::Lba out_vlba = 0;
  /// Output bytes per input byte (1.0 for a plain merge).
  double write_ratio = 1.0;
  /// CPU cost per input byte (merge comparisons + user reduce function).
  double cpu_ns_per_byte = 0.0;
  std::int64_t io_unit_bytes = 256 * 1024;
  /// Parallel read window (pipeline depth).
  int window = 2;
  /// Invoked as input bytes are consumed (progress reporting).
  std::function<void(std::int64_t bytes_done, std::int64_t bytes_total)> on_progress;
  /// Polled before issuing each read/write. When it returns true the op
  /// stops issuing, drains what is outstanding and reports kError — the
  /// killed task's process is gone, so no new I/O may reach the disk.
  sim::SmallFn<bool()> cancelled;
};

/// Fire-and-forget; `on_done` runs after every read, burst and write has
/// completed. Lifetime is self-managed. A failed read or write stops new
/// issue, drains what is outstanding, and reports kError once.
class MergeOp {
 public:
  static void run(const VmHandle& vm, std::uint64_t io_ctx, MergeOpParams params,
                  iosched::CompletionFn on_done);

 private:
  struct Cursor {
    disk::Lba next;
    std::int64_t remaining;
  };

  MergeOp(const VmHandle& vm, std::uint64_t io_ctx, MergeOpParams params,
          iosched::CompletionFn on_done);

  void pump(std::shared_ptr<MergeOp> self);
  void unit_read_done(std::shared_ptr<MergeOp> self, std::int64_t unit_bytes, sim::Time t);
  void maybe_finish(sim::Time t);

  VmHandle vm_;
  std::uint64_t io_ctx_;
  MergeOpParams p_;
  iosched::CompletionFn on_done_;

  std::vector<Cursor> cursors_;
  std::size_t rr_ = 0;            // round-robin input cursor
  std::int64_t total_in_ = 0;
  std::int64_t read_issued_ = 0;
  std::int64_t read_done_ = 0;
  std::int64_t write_pending_bytes_ = 0;  // fractional carry for write_ratio
  disk::Lba out_next_ = 0;
  int inflight_ = 0;              // reads in the window
  int cpu_write_inflight_ = 0;    // units in CPU/write stages
  bool failed_ = false;           // stop issuing; drain and report kError
  bool done_fired_ = false;
};

}  // namespace iosim::mapred
