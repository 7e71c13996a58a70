// iosim: the block layer — bio queueing, merging, a pluggable elevator, and
// run-time elevator switching.
//
// One instance models `/sys/block/<dev>/queue` of one kernel: each DomU has
// one (its guest elevator) and each Dom0 has one (the VMM-level elevator).
// `switch_scheduler()` models `echo <name> > .../scheduler`: new bios are
// held back while the old discipline dispatches until it is empty, then
// dispatch freezes for a quiesce window and the new one takes the held
// bios — the raw ingredient of the paper's switch-cost study (Fig. 5).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blk/bio.hpp"
#include "blk/merge_index.hpp"
#include "blk/request_sink.hpp"
#include "iosched/scheduler.hpp"
#include "obs/attr.hpp"
#include "sim/chunk_pool.hpp"
#include "sim/simulator.hpp"

namespace iosim::blk {

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

  /// Submit the run [run.lba, run.lba + run.sectors) as consecutive bios of
  /// `segment_sectors` each (the last may be shorter). Every segment shares
  /// the run's direction, sync flag, context and attribution handle.
  /// `run.on_complete` completes every segment: it is called once per
  /// request the run reached, with the number of the run's segments that
  /// request carries. The result is exactly that of one submit() per
  /// segment in ascending order, but segments that back-merge into one
  /// request in a row cost one merge-index update, and the segments one
  /// request takes cost one completion entry and one completion call. The blkfront ring hands each guest request to Dom0
  /// this way (DESIGN.md §8.6).
  void submit_segments(Bio&& run, std::int64_t segment_sectors);

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
  /// kick() calls so far, including those that found the sink full or the
  /// queue frozen: a deterministic work count (DESIGN.md §8.6). It is not
  /// in BlockLayerCounters, which describe the traffic and must not depend
  /// on how often the sink asks for more.
  std::uint64_t kicks() const { return kicks_; }
  /// Back-merge lookups so far, and the merge-index slots they probed:
  /// deterministic work counts, kept outside BlockLayerCounters like
  /// kicks() (DESIGN.md §8.9).
  std::uint64_t merge_lookups() const { return merge_idx_.finds(); }
  std::uint64_t merge_probes() const { return merge_idx_.find_probes(); }

 private:
  /// Per-bio hooks of a segment entering the queue (auditor, tracer, Dom0
  /// arrival stamp), before it merges or queues. Called only for an
  /// observed run (see submit_segments); the counter is the caller's.
  void note_bio(const Bio& bio, Lba lba, std::int64_t sectors, Time now);
  /// Back-merge the run's segments from `lba` on into `rq`, which ends at
  /// `lba`: as many in a row as per-segment submits would merge into it.
  /// Runs the per-segment hooks only when `observed`. The merged segments
  /// get one completion entry, or join `rq`'s last one when `extend` (the
  /// run's previous segment started `rq`). Returns the LBA after the last
  /// merged segment.
  Lba back_merge(Request* rq, Bio& run, Lba lba, Lba end, std::int64_t segment_sectors,
                 bool observed, bool extend, Time now);
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
  /// Request pool: every request this layer ever built. A request returns
  /// to it only after its completion callbacks have run, so the pool holds
  /// the layer's peak number of live requests, rounded up to a chunk.
  sim::ChunkPool<Request> pool_;
  /// Back-merge index over *queued* requests: end LBA -> request.
  MergeIndex merge_idx_;

  std::size_t in_flight_ = 0;
  std::size_t queued_by_dir_[iosched::kNumDirs] = {0, 0};
  bool frozen_ = false;
  // Elevator-switch state: while draining, the old scheduler empties and
  // arriving bios queue up in held_.
  bool draining_ = false;
  SchedulerKind switch_target_ = SchedulerKind::kNoop;
  struct HeldRun {
    Bio run;
    std::int64_t segment_sectors;
  };
  std::vector<HeldRun> held_;
  sim::EventId freeze_ev_ = sim::kInvalidEvent;
  sim::EventId wakeup_ev_ = sim::kInvalidEvent;
  // Busy-time integral state (see BlockLayerCounters::busy_ns): whether the
  // layer had work on hand after the last accounting point, and when that
  // point was.
  bool busy_ = false;
  sim::Time busy_mark_ = sim::Time::zero();
  BlockLayerCounters counters_;
  std::uint64_t kicks_ = 0;
};

}  // namespace iosim::blk
