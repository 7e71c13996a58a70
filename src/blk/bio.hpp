// iosim: the unit of I/O submitted *into* a block layer.
#pragma once

#include <cstdint>

#include "iosched/request.hpp"
#include "obs/attr.hpp"

namespace iosim::blk {

using disk::Lba;
using iosched::Dir;
using iosched::IoStatus;
using sim::Time;

/// A single I/O as issued by a task / filesystem / blkfront. The block layer
/// turns bios into requests, merging adjacent ones exactly like the kernel's
/// back-merge path.
struct Bio {
  Lba lba = 0;
  std::int64_t sectors = 0;
  Dir dir = Dir::kRead;
  /// Synchronous: the issuer waits for completion (reads, O_SYNC writes).
  bool sync = true;
  /// Issuing context (task id in a guest, VM id in Dom0).
  std::uint64_t ctx = 0;
  /// Attribution record handle (obs/attr.hpp); kNoAttr when attribution is
  /// off or the bio is outside the DomU->Dom0 path. Guest layers allocate
  /// it, the blkfront ring copies it onto the guest request's Dom0 run
  /// (every segment of it carries the handle).
  obs::AttrHandle attr = obs::kNoAttr;
  /// Invoked when the containing request completes, with the request's
  /// outcome (kOk unless the device failed the request) and the number of
  /// bios it completes: 1 for a plain bio, or the segments of a
  /// submit_segments run that merged into the request together. A per-bio
  /// callable `(Time, IoStatus)` runs once per bio instead (see
  /// iosched::BioCompletionFn). Captures up to its inline budget cost no
  /// allocation per bio.
  iosched::BioCompletionFn on_complete;
};

}  // namespace iosim::blk
