// iosim: block-layer request representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "disk/disk_model.hpp"
#include "iosched/first_inline.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace iosim::iosched {

using disk::Lba;
using sim::Time;

/// Transfer direction.
enum class Dir : std::uint8_t { kRead = 0, kWrite = 1 };

inline constexpr int kNumDirs = 2;
inline const char* to_string(Dir d) { return d == Dir::kRead ? "read" : "write"; }

/// Completion status of a request/bio. Every completion callback in the
/// stack carries one; without fault injection it is always kOk.
enum class IoStatus : std::uint8_t { kOk = 0, kError = 1 };

inline const char* to_string(IoStatus s) {
  return s == IoStatus::kOk ? "ok" : "error";
}

/// Completion callback of a stream of bios as a whole (arguments:
/// completion time, outcome). Small-buffer-optimized: the HDFS/mapred
/// issuers capture an owner pointer plus a couple of words, which stays
/// inline — no allocation per I/O (see sim/event_fn.hpp).
using CompletionFn = sim::SmallFn<void(Time, IoStatus)>;

/// Completion callback of a bio (arguments: completion time, outcome, and
/// how many bios it completes). A request calls each of its callbacks once,
/// with the number of bios that callback stands for (CompletionEntry), so
/// segments of one run that back-merged into one request cost one call.
///
/// It holds either a counted callable, `(Time, IoStatus, std::uint32_t)`,
/// or a per-bio one, `(Time, IoStatus)`, which it calls once per bio in a
/// row. Either way a completion is one indirect call. Small-buffer-
/// optimized like CompletionFn.
class BioCompletionFn {
 public:
  BioCompletionFn() = default;
  BioCompletionFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, BioCompletionFn> &&
                                 std::is_invocable_v<D&, Time, IoStatus, std::uint32_t>,
                             int> = 0>
  BioCompletionFn(F&& f) : fn_(std::forward<F>(f)) {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, BioCompletionFn> &&
                                 !std::is_invocable_v<D&, Time, IoStatus, std::uint32_t> &&
                                 std::is_invocable_v<D&, Time, IoStatus>,
                             int> = 0>
  BioCompletionFn(F&& f) : fn_(PerBio<D>{std::forward<F>(f)}) {}  // NOLINT

  explicit operator bool() const { return static_cast<bool>(fn_); }
  void operator()(Time t, IoStatus st, std::uint32_t bios) const { fn_(t, st, bios); }

 private:
  template <class F>
  struct PerBio {
    F f;
    void operator()(Time t, IoStatus st, std::uint32_t bios) {
      for (; bios > 0; --bios) f(t, st);
    }
  };
  sim::SmallFn<void(Time, IoStatus, std::uint32_t)> fn_;
};

/// One completion callback on a request, called once when the request
/// completes, with `bios`: the number of bios it stands for. A plain bio
/// adds an entry with bios = 1; a run of ring segments that back-merged
/// into the request in one go shares one entry
/// (blk::BlockLayer::submit_segments).
struct CompletionEntry {
  BioCompletionFn fn;
  std::uint32_t bios = 1;
};

struct Request;

/// Per-request state of the expiry-FIFO elevators (deadline, AS): the
/// FIFO deadline and the intrusive FIFO links. Living in the request, it
/// makes queueing and removal free of lookups and of FIFO nodes.
/// Meaningful only while such an elevator holds the request (see
/// iosched/expiry_queues.hpp).
struct ElvState {
  Time expire;               // absolute FIFO deadline
  Request* prev = nullptr;   // FIFO neighbours (older / newer)
  Request* next = nullptr;
};

/// A queued block request. Created by the BlockLayer from submitted bios and
/// owned by it for its whole life; schedulers and devices only see stable
/// raw pointers. A request may represent several merged bios — completing
/// the request fires every accumulated callback. The BlockLayer recycles
/// request objects (blk/block_layer.hpp), so a pointer is only meaningful
/// until the request's completion callbacks have run.
///
/// The fields every layer reads on the way down and back up come first and
/// share the first 64 bytes; the usual single completion entry and
/// attribution handle follow inline (FirstInline), so a request is one
/// piece of memory (DESIGN.md §8.9).
struct Request {
  std::uint64_t id = 0;

  Lba lba = 0;
  std::int64_t sectors = 0;

  /// Issuing context: the "process" as the elevator sees it. Inside a guest
  /// this is a task identifier; inside Dom0 it is the VM (blkback) id.
  std::uint64_t ctx = 0;

  /// Time the request entered the block layer (deadline bookkeeping).
  Time submit;

  /// Time the block layer handed the request to the sink (device/ring).
  /// Set at dispatch; before that it is meaningless. Queue residence is
  /// dispatch - submit, service time is completion - dispatch.
  Time dispatch;

  /// Bios merged into this request (1 for a fresh request, +1 per back
  /// merge). The invariant auditor's conservation check counts completed
  /// requests in bio units against BlockLayerCounters::bios_submitted.
  std::uint32_t n_bios = 1;

  /// Owned by the sink while the request is dispatched: the blkfront ring
  /// counts the request's segments still in flight here.
  std::int32_t sink_pending = 0;

  Dir dir = Dir::kRead;

  /// Synchronous requests have a waiter: reads, and O_SYNC/flush writes.
  /// Schedulers with anticipation/idling only idle for sync requests.
  bool sync = true;

  /// Outcome, set by the sink before it completes the request. A merged
  /// request fails as a whole — every bio it absorbed sees kError, like the
  /// kernel failing all bios of a failed request.
  IoStatus status = IoStatus::kOk;

  /// Completion callbacks of the merged bios, in submission order; each
  /// entry is called once, with its bio count.
  FirstInline<CompletionEntry> completions;

  /// Attribution record handles (obs::AttrHandle) of the guest requests
  /// this request carries — empty when attribution is off. A guest request
  /// holds at most one; a Dom0 request accumulates the distinct handles of
  /// the ring segments merged into it. Kept as raw u32 so iosched/ stays
  /// independent of obs/.
  FirstInline<std::uint32_t> attrs;

  /// Owned by the elevator that holds the request (deadline, AS).
  ElvState elv;

  Lba end() const { return lba + sectors; }
  std::int64_t bytes() const { return sectors * disk::kSectorBytes; }
};

static_assert(offsetof(Request, status) + sizeof(IoStatus) <= 64,
              "Request's hot fields must stay in its first 64 bytes");

}  // namespace iosim::iosched
