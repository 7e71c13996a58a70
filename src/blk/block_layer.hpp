// iosim: the block layer — bio queueing, merging, a pluggable elevator, and
// run-time elevator switching.
//
// One instance models `/sys/block/<dev>/queue` of one kernel: each DomU has
// one (its guest elevator) and each Dom0 has one (the VMM-level elevator).
// `switch_scheduler()` models `echo <name> > .../scheduler`: the old
// discipline's queue is drained into the new one and dispatch freezes for a
// quiesce window — the raw ingredient of the paper's switch-cost study
// (Fig. 5).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blk/bio.hpp"
#include "blk/merge_index.hpp"
#include "blk/request_sink.hpp"
#include "iosched/scheduler.hpp"
#include "obs/attr.hpp"
#include "sim/simulator.hpp"

namespace iosim::blk {

class BlockLayer;

namespace detail {
/// Shared observer storage. The layer owns it via shared_ptr; handles hold a
/// weak_ptr, so removal through a handle is safe even after the layer died,
/// and observers die with the layer even if a handle leaks.
struct ObserverList {
  using Fn = std::function<void(const BlockLayer&, const iosched::Request&, sim::Time)>;
  struct Entry {
    std::uint64_t id;
    Fn fn;
  };
  std::vector<Entry> completion;
  std::vector<Entry> dispatch;
  std::uint64_t next_id = 1;
};
}  // namespace detail

/// Handle to a registered observer. Removal is idempotent and safe in any
/// order relative to the layer's destruction (probes unregister themselves
/// in their destructors; a probe outliving its layer is a no-op remove).
class ObserverHandle {
 public:
  ObserverHandle() = default;
  ObserverHandle(std::weak_ptr<detail::ObserverList> list, std::uint64_t id)
      : list_(std::move(list)), id_(id) {}

  /// Unregister the observer. Returns false if the layer is gone or the
  /// observer was already removed.
  bool remove();
  /// True while the observer is still registered on a live layer.
  bool active() const;

 private:
  std::weak_ptr<detail::ObserverList> list_;
  std::uint64_t id_ = 0;
};

using iosched::IoScheduler;
using iosched::Request;
using iosched::SchedTunables;
using iosched::SchedulerKind;

/// Static configuration of a block layer instance.
struct BlockLayerConfig {
  SchedulerKind scheduler = SchedulerKind::kCfq;
  SchedTunables tunables;
  /// Largest request after merging (kernel max_sectors_kb default = 512 KB).
  std::int64_t max_request_sectors = 512;
  /// Extra stall after the drain completes while the new elevator is set up
  /// (module init, queue re-allocation, writeback throttle restart — the
  /// paper measured surprisingly large switch costs on its 2.6.22 stack and
  /// left "investigating the cause" to future work).
  sim::Time switch_freeze = sim::Time::from_ms(1000);
  /// Human-readable name for traces ("host0/dom0", "host0/vm2", ...).
  std::string name = "blk";
  /// Request-path attribution role (obs/attr.hpp). kNone (the default)
  /// disables the stamping hooks entirely; PhysicalHost sets kDom0/kGuest
  /// plus the coordinates when it assembles the split-driver path.
  obs::LayerRole obs_role = obs::LayerRole::kNone;
  int obs_host = 0;
  int obs_vm = 0;
};

/// Lifetime/throughput counters, cheap enough to always keep.
struct BlockLayerCounters {
  std::uint64_t bios_submitted = 0;
  std::uint64_t back_merges = 0;
  std::uint64_t requests_dispatched = 0;
  std::uint64_t requests_completed = 0;
  /// Requests completed with IoStatus::kError (included in completed).
  std::uint64_t requests_failed = 0;
  std::int64_t bytes_completed[iosched::kNumDirs] = {0, 0};
  std::uint64_t scheduler_switches = 0;
  /// Simulated time this layer had work on hand (queued, in flight, held
  /// behind a switch, or mid-switch). Throughput divided by *busy* time —
  /// not wall time — measures elevator efficiency independently of arrival
  /// lulls; the online meta-scheduler rewards arms with it.
  std::uint64_t busy_ns = 0;
};

class BlockLayer {
 public:
  BlockLayer(sim::Simulator& simr, RequestSink& sink, BlockLayerConfig cfg);
  BlockLayer(const BlockLayer&) = delete;
  BlockLayer& operator=(const BlockLayer&) = delete;

  /// Submit one bio. May merge into a queued request; otherwise allocates a
  /// new request and queues it with the active elevator.
  void submit(Bio bio);

  /// Switch the elevator at run time, modelling the kernel's elv_switch:
  /// the old discipline keeps dispatching until its queue is fully drained,
  /// while NEW submissions are held back (the submitting tasks stall);
  /// once drained, the new elevator is installed after a `switch_freeze`
  /// re-init stall and the held bios are released into it. Switching to
  /// the *same* kind pays the whole quiesce too — the paper observed
  /// exactly that ("re-assigning the same pair is costly"). A switch
  /// issued while one is in progress just retargets it.
  void switch_scheduler(SchedulerKind kind);

  SchedulerKind scheduler_kind() const { return sched_->kind(); }
  const BlockLayerCounters& counters() const { return counters_; }
  const std::string& name() const { return cfg_.name; }

  /// Number of requests queued in the elevator (not yet at the device).
  std::size_t queued() const { return sched_->size(); }
  /// Queued requests of one direction — the stall detector's "who was
  /// ahead" snapshot (counts requests, not merged bios, like queued()).
  std::size_t queued(iosched::Dir d) const {
    return queued_by_dir_[static_cast<int>(d)];
  }
  /// Number of requests handed to the sink and not yet completed.
  std::size_t in_flight() const { return in_flight_; }

  /// Observer signature: the layer it fired on (so one probe can watch many
  /// layers and key off `layer.name()`), the request, and the event time.
  using Observer = detail::ObserverList::Fn;

  /// Observer invoked on every request completion.
  ObserverHandle add_completion_observer(Observer fn);
  /// Observer invoked when a request is handed to the sink (queue-depth and
  /// dispatch-latency probes; `rq.dispatch` has just been stamped).
  ObserverHandle add_dispatch_observer(Observer fn);

 private:
  void kick();
  void maybe_finish_switch();
  void arm_wakeup();
  /// Fold the interval since the last call into busy_ns (if the layer was
  /// busy) and recompute the busy flag. Called after every operation that
  /// can change whether the layer has work on hand.
  void account_busy();
  void on_sink_complete(Request* rq, Time now);
  /// A fresh request from the pool (reused when one is free).
  Request* acquire_request();
  /// Return a completed request to the pool, reset to the fresh state.
  void release_request(Request* rq);

  sim::Simulator& simr_;
  RequestSink& sink_;
  BlockLayerConfig cfg_;
  std::unique_ptr<IoScheduler> sched_;

  std::uint64_t next_rq_id_ = 1;
  /// Request pool: every request this layer ever built, plus the ones free
  /// for reuse (LIFO, so the most recently completed, cache-warm one goes
  /// out first). A request returns to the pool only after its completion
  /// callbacks have run; the pool's size is the layer's peak number of
  /// live requests.
  std::vector<std::unique_ptr<Request>> pool_;
  std::vector<Request*> free_;
  /// Back-merge index over *queued* requests: end LBA -> request.
  MergeIndex merge_idx_;

  std::size_t in_flight_ = 0;
  std::size_t queued_by_dir_[iosched::kNumDirs] = {0, 0};
  bool frozen_ = false;
  // Elevator-switch state: while draining, the old scheduler empties and
  // arriving bios queue up in held_.
  bool draining_ = false;
  SchedulerKind switch_target_ = SchedulerKind::kNoop;
  std::vector<Bio> held_;
  sim::EventId freeze_ev_ = sim::kInvalidEvent;
  sim::EventId wakeup_ev_ = sim::kInvalidEvent;
  // Busy-time integral state (see BlockLayerCounters::busy_ns): whether the
  // layer had work on hand after the last accounting point, and when that
  // point was.
  bool busy_ = false;
  sim::Time busy_mark_ = sim::Time::zero();
  BlockLayerCounters counters_;
  std::shared_ptr<detail::ObserverList> observers_;
};

}  // namespace iosim::blk
