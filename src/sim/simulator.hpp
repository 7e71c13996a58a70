// iosim: deterministic discrete-event simulator core.
//
// The whole reproduction runs on one single-threaded event loop. Events with
// equal timestamps fire in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run bit-reproducible for a
// given seed — a property the paper's "average of three runs" methodology is
// replaced with (three seeds, averaged).
//
// Hot-path layout (see DESIGN.md §8): the pending set is an indexed 4-ary
// heap of 16-byte entries — (time, packed seq·slot key) — over a slot
// arena. Keys live in the heap array itself, so sift comparisons touch only
// contiguous memory, and the min-of-4 child scan is branchless (cmov, not
// data-dependent branches that mispredict half the time on random keys).
// Per-slot bookkeeping (generation tag + heap position) is a dense 8-byte
// array separate from the fat callback storage, so the sift position
// updates stay in L1; slots recycle through a free list, so a steady-state
// run allocates nothing per event; `EventId`s carry a generation tag, so
// cancel is a bounds check + generation compare plus one indexed heap
// removal — no hash lookup and no tombstone accumulation. Finally, firing
// an event leaves a logical *hole* at the heap root instead of reseating
// the tail immediately: the overwhelmingly common callback pattern is
// "schedule my successor", and that push fills the hole with a single
// root-down sift — fusing the pop's sift with the push's and skipping the
// vector tail churn entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace iosim::sim {

/// Handle to a scheduled event; lets the scheduler of the event cancel it.
/// Packs the event's arena slot (low 32 bits) under its generation tag
/// (high 32 bits): a slot's generation bumps every time it is consumed
/// (fired or cancelled), so a stale handle can never cancel the slot's next
/// tenant. Generations are never 0, so 0 stays an invalid id.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Why the last run() returned.
enum class StopReason : std::uint8_t {
  kDrained = 0,      // event queue exhausted (the normal end of a simulation)
  kEventBudget = 1,  // executed() reached SimBudget::max_events
  kTimeBudget = 2,   // the next event lies beyond SimBudget::max_sim_time
  kAborted = 3,      // SimBudget::abort observed true (external watchdog)
};

const char* to_string(StopReason r);

/// Progress sentinel for the event loop. A livelocked simulation (events
/// forever rescheduling each other without the job finishing) would
/// otherwise spin run() indefinitely; the budget bounds it deterministically
/// — the same seed trips the same budget at the same event count. The
/// `abort` flag is the one channel through which wall-clock watchdogs reach
/// the loop; it is polled every kAbortCheckPeriod events so the owning
/// thread can cooperatively stop a wedged run.
struct SimBudget {
  std::uint64_t max_events = 0;              // 0 = unlimited
  Time max_sim_time = Time::zero();          // zero() = unlimited
  const std::atomic<bool>* abort = nullptr;  // null = never externally aborted
};

/// Single-threaded discrete-event simulator.
///
/// Usage:
///   Simulator simr;
///   simr.after(10_ms, [&]{ ... });
///   simr.run();
///
/// Callbacks may schedule further events (including at the current time).
/// Cancellation is eager: the entry leaves the heap and its slot returns to
/// the free list immediately, so cancel-heavy runs (anticipatory idle
/// timeouts) hold no garbage.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (times in the past clamp to
  /// now()). A template so the callable is constructed directly in its
  /// arena slot — no intermediate EventFn object, no extra inline-buffer
  /// copy on the hottest call in the codebase.
  template <class F,
            class = std::enable_if_t<std::is_invocable_v<std::decay_t<F>&>>>
  EventId at(Time t, F&& fn) {
    if (t < now_) t = now_;  // clamp: scheduling in the past runs "now"
    const std::uint32_t slot = alloc_slot();
    fns_[slot] = std::forward<F>(fn);
    heap_push(HeapEntry{t.ns(), (bump_seq() << kSlotBits) | slot});
    return make_id(slot, meta_[slot].gen);
  }

  /// Schedule `fn` to run `delay` after now(). Negative delays clamp to now.
  template <class F,
            class = std::enable_if_t<std::is_invocable_v<std::decay_t<F>&>>>
  EventId after(Time delay, F&& fn) {
    if (delay < Time::zero()) delay = Time::zero();
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event. Returns false if the event already ran, was
  /// already cancelled, or the id is unknown/invalid.
  bool cancel(EventId id);

  /// Run the next pending event, if any. Returns false when the queue is
  /// exhausted.
  bool step() {
    if (hole_) settle();
    if (heap_.empty()) return false;
    fire_top();
    return true;
  }

  /// Run until the event queue is empty — or, with a budget installed, until
  /// the budget is exhausted or the abort flag fires. stop_reason() reports
  /// which; a budget stop leaves the queue intact.
  void run();

  /// Install (or clear, with a default-constructed budget) the progress
  /// sentinel consulted by run().
  void set_budget(const SimBudget& b) { budget_ = b; }
  const SimBudget& budget() const { return budget_; }

  /// Why the most recent run() returned. kDrained until run() is first
  /// called with a budget that trips.
  StopReason stop_reason() const { return stop_reason_; }

  /// Run events with time <= `deadline`; afterwards now() == min(deadline,
  /// time the queue went empty). Events exactly at `deadline` do run.
  void run_until(Time deadline);

  /// Number of pending events (exact: cancelled events leave immediately).
  std::size_t pending() const { return heap_.size() - (hole_ ? 1 : 0); }

  /// Total number of events executed so far — useful for perf accounting
  /// and for asserting a simulation actually did work.
  std::uint64_t executed() const { return executed_; }

  /// Total number of events ever scheduled, cancelled ones included: the
  /// count of sequence numbers issued so far. Firing leaves it unchanged,
  /// so two equal readings mean nothing was scheduled in between (the
  /// blkfront ring batches on that, virt/blkfront_ring.hpp).
  std::uint64_t scheduled() const { return next_seq_ - 1; }

  /// Event-slot arena occupancy. `slots` is the arena's high-water mark of
  /// *concurrent* events (never total events scheduled): a run that
  /// schedules and cancels a million timeouts one at a time holds one slot.
  /// The cancel-churn regression test pins exactly that bound.
  struct PoolStats {
    std::size_t slots = 0;          // arena size (live + free)
    std::size_t free_slots = 0;     // slots on the free list
    std::size_t heap_capacity = 0;  // allocated heap entries
  };
  PoolStats pool_stats() const {
    return {meta_.size(), free_count_, heap_.capacity()};
  }

  /// Structural integrity check over the heap + slot arena, for the
  /// invariant auditor (src/check/): every heap entry's slot back-pointer
  /// must name its heap position, generations must never be 0, the free
  /// list must be acyclic and exactly free_count_ long, and every arena
  /// slot must be either scheduled or free (never both, never neither).
  /// O(slots); returns false and fills `why` on the first inconsistency.
  bool audit(std::string* why = nullptr) const;

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  /// The slot index rides in the low bits of the tie-break key, so one
  /// 64-bit compare orders equal-time events AND names the arena slot.
  /// 24 bits = 16.7M concurrent events; alloc_slot() aborts loudly long
  /// before an id could wrap. The sequence number above it gets 40 bits
  /// (~10^12 events per Simulator); at() checks the bound.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// Heap key + slot reference, kept in the heap array itself so sift
  /// comparisons never chase into the arena. 16 bytes — `key` packs
  /// (seq << 24) | slot, and because sequence numbers are unique, comparing
  /// `key` orders equal-time events exactly as comparing seq alone would:
  /// strict FIFO. Halving the entry from the obvious (time, seq, slot)
  /// triple doubles how many heap levels fit per cache line, and the sift
  /// loops carry both words in registers.
  struct HeapEntry {
    std::int64_t t_ns;
    std::uint64_t key;  // (seq << kSlotBits) | slot
    std::uint32_t slot() const { return static_cast<std::uint32_t>(key & kSlotMask); }
    bool operator<(const HeapEntry& o) const {
      if (t_ns != o.t_ns) return t_ns < o.t_ns;
      return key < o.key;
    }
  };

  /// Per-slot bookkeeping, 8 bytes so thousands of concurrent events still
  /// fit the sift write-set in L1. `pos` is the slot's heap index while
  /// scheduled and the next-free link while on the free list — the two
  /// states can't be confused because cancel() checks the generation first,
  /// and a matching generation implies the slot is scheduled (generations
  /// bump on free, and the freed generation is never re-issued).
  struct SlotMeta {
    std::uint32_t gen = 1;
    std::uint32_t pos = kNpos;
  };

  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// How many executed events lie between two abort-flag polls. The flag is
  /// a relaxed atomic load; polling every event would still be cheap, but
  /// watchdog latency in the hundreds of microseconds is plenty.
  static constexpr std::uint64_t kAbortCheckPeriod = 256;

  /// Pop the heap top, advance the clock, recycle the slot, and invoke the
  /// callback. Leaves the root hole open (see settle()).
  /// Precondition: !hole_ && !heap_.empty().
  void fire_top();

  /// Collapse the root hole a fire_top() left behind: reseat the heap tail
  /// at the root. Every path that reads heap_[0] or entry positions checks
  /// `hole_` first; when the fired callback scheduled a successor (the hot
  /// case) the push already filled the hole and this never runs.
  void settle();

  /// Take a slot off the free list, or grow the arena. Inline: it sits on
  /// the at()/after() fast path.
  std::uint32_t alloc_slot() {
    if (free_head_ != kNpos) {
      const std::uint32_t slot = free_head_;
      free_head_ = meta_[slot].pos;  // pos doubles as the next-free link
      --free_count_;
      return slot;
    }
    if (meta_.size() > kSlotMask) arena_overflow();
    meta_.emplace_back();
    fns_.emplace_back();
    return static_cast<std::uint32_t>(meta_.size() - 1);
  }

  std::uint64_t bump_seq() {
    if (next_seq_ >= kMaxSeq) seq_overflow();
    return next_seq_++;
  }

  [[noreturn]] static void arena_overflow();
  [[noreturn]] static void seq_overflow();

  void free_slot(std::uint32_t slot);
  void heap_push(HeapEntry e);
  /// Remove the entry at heap position `pos` (cancel's path).
  /// Precondition: !hole_.
  void heap_remove_at(std::size_t pos);
  void sift_up(std::size_t pos, HeapEntry e);
  void sift_down(std::size_t pos, HeapEntry e);
  void place(std::size_t pos, HeapEntry e) {
    heap_[pos] = e;
    meta_[e.slot()].pos = static_cast<std::uint32_t>(pos);
  }

  Time now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  SimBudget budget_;
  StopReason stop_reason_ = StopReason::kDrained;
  bool hole_ = false;  // heap_[0] is logically vacant (fired, not reseated)
  std::vector<HeapEntry> heap_;
  std::vector<SlotMeta> meta_;  // hot: touched per sift level
  std::vector<EventFn> fns_;    // cold: touched twice per event
  std::uint32_t free_head_ = kNpos;
  std::size_t free_count_ = 0;
};

}  // namespace iosim::sim
