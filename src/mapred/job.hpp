// iosim: the job — JobTracker scheduling, task lifecycle, progress and
// phase events.
//
// One Job instance runs one MapReduce application over a ClusterEnv. It
// lays out the input in HDFS, assigns map tasks with locality preference as
// slots free up (producing the "waves" the paper's Table II is about),
// launches reducers after the slow-start threshold, and publishes the
// events the meta-scheduler's phase detector consumes: first-map-done,
// all-maps-done (Ph1→Ph2 boundary), shuffle-done (Ph2→Ph3 boundary) and
// job-done.
//
// Failure handling (Hadoop 0.19 semantics, engaged only when the cluster
// injects faults — a healthy run never touches these paths):
//   * a failed task attempt is retried with capped exponential backoff, up
//     to max_task_attempts; exhausting attempts aborts the job with a
//     diagnostic (failed() / failure()),
//   * map input reads fail over across HDFS replicas; the job aborts only
//     when every replica of a block is on a dead VM,
//   * VM outages kill the attempts placed on the VM (they are retried
//     elsewhere) and mask the VM from the scheduler until it returns,
//   * optional speculative execution re-runs straggling maps on a second
//     VM; the first copy to finish wins and the loser is cancelled.
// Cancelled/failed attempts are parked in a graveyard so callbacks still in
// flight observe the `cancelled` flag instead of a dangling pointer.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mapred/cluster_env.hpp"
#include "mapred/job_conf.hpp"
#include "mapred/job_stats.hpp"
#include "mapred/map_task.hpp"
#include "mapred/reduce_task.hpp"
#include "mapred/slot_arbiter.hpp"
#include "sim/random.hpp"

namespace iosim::mapred {

class Job {
 public:
  Job(ClusterEnv& env, JobConf conf, std::uint64_t seed);
  ~Job();
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Multi-tenant identity, set before run(). `job_id` keys auditor records
  /// and arbiter holdings; `ctx_base` offsets every task's elevator context
  /// (see mapred::ctx::job_window). The defaults (0, 0) are the single-job
  /// legacy identity — behavior and traces are byte-identical to builds
  /// that predate tenancy.
  void set_identity(int job_id, std::uint64_t ctx_base) {
    job_id_ = job_id;
    ctx_base_ = ctx_base;
  }
  int job_id() const { return job_id_; }
  std::uint64_t ctx_base() const { return ctx_base_; }

  /// Route slot accounting through a shared arbiter (multi-job streams).
  /// Null (default) = the job owns its slots outright. Set before run().
  void set_arbiter(SlotArbiter* a) { arbiter_ = a; }

  /// Lay out input and start scheduling. The caller then drives the
  /// simulator; `on_done` fires when the last reducer commits.
  void run();

  /// Re-scan for assignable work after cluster-wide slot supply or policy
  /// quota changed (another job released slots / finished). Only meaningful
  /// under an arbiter; a no-op once the job is done or failed.
  void kick();

  /// Unassigned demand, for policy share computations: map tasks waiting
  /// for a slot, and launched-but-unstarted reducers (0 before slow-start).
  int pending_map_count() const { return static_cast<int>(pending_maps_.size()); }
  int queued_reduce_count() const;

  const JobConf& conf() const { return conf_; }
  const JobStats& stats() const { return stats_; }
  ClusterEnv& env() { return env_; }
  bool done() const { return done_; }
  /// Whether the job aborted; the diagnostic is in failure().
  bool failed() const { return failed_; }
  const std::string& failure() const { return failure_; }
  /// Whether the abort was caused by dead hardware (input replicas all on
  /// dead VMs, or the final attempt died with its VM) rather than by the
  /// task itself — the distinction admission control needs: hardware-killed
  /// jobs are worth re-admitting, poison jobs are not.
  bool failed_on_dead_vm() const { return failed_on_dead_vm_; }

  // Phase / lifecycle observers (set before run()).
  std::function<void(Time)> on_first_map_done;
  std::function<void(Time)> on_maps_done;
  std::function<void(Time)> on_shuffle_done;
  std::function<void(Time)> on_done;
  std::function<void(Time, const std::string&)> on_failed;

  /// Observers for append_hooks; an unset member leaves its slot alone.
  /// (The `= {}` lets designated initializers skip members warning-free.)
  struct Hooks {
    std::function<void(Time)> on_maps_done = {};
    std::function<void(Time)> on_shuffle_done = {};
    std::function<void(Time)> on_done = {};
    std::function<void(Time, const std::string&)> on_failed = {};
  };
  /// Chain `h` onto the matching on_* observers: whatever is installed
  /// already runs first, then the new hook. Every observer that must not
  /// clobber another (probes, detectors, controllers, the stream runner)
  /// goes through here.
  void append_hooks(Hooks h);

  /// Hadoop-style job progress in [0,1].
  double progress() const;

 private:
  friend class MapTask;
  friend class ReduceTask;

  // Slot accounting seam: private per-VM vectors when no arbiter is
  // installed (the legacy fast path, byte-identical), the shared arbiter
  // otherwise.
  bool map_slot_free(int v) const;
  void take_map_slot(int v);
  void give_map_slot(int v);
  bool reduce_slot_free(int v) const;
  void take_reduce_slot(int v);
  void give_reduce_slot(int v);

  void try_assign_maps();
  void launch_reducers_if_ready();
  void pump_queued_reducers();
  /// `preferred` if schedulable, else the next schedulable VM by rotation,
  /// else -1 (no placement possible right now).
  int resolve_reduce_vm(int preferred) const;
  void start_reducer(ReduceTask* task);
  void map_finished(MapTask& task, MapOutput out);
  void map_attempt_failed(MapTask& task);
  void map_input_lost(MapTask& task);
  /// A committed map's output became unreachable (its TaskTracker was
  /// declared dead): roll the commit back and re-execute the map. Called by
  /// reducers that hit a declared-dead source and by the membership
  /// listener. Idempotent per outstanding loss.
  void map_output_lost(int map_id);
  void reduce_finished(ReduceTask& task);
  void reduce_attempt_failed(ReduceTask& task);
  void reducer_shuffle_finished(ReduceTask& task);
  void update_progress();

  // Failure-path plumbing.
  Time backoff_delay(int failures) const;
  void retire_map_attempt(MapTask& task);
  void abort_job(std::string reason);
  void handle_vm_down(int vm);
  void handle_vm_up(int vm);
  void handle_vm_declared_dead(int vm);
  void unregister_blocks();
  void schedule_speculation_scan();
  void speculation_scan();
  void launch_speculative_map(int map_id);
  bool map_pending(int map_id) const;
  void note_hdfs_failover(int map_id, int from_vm, int to_vm);
  void note_fetch_retry(int reduce_id, int map_id);
  void note_replica_write_lost(int reduce_id);

  // Accessors used by tasks.
  sim::Simulator& simr() { return *env_.simr; }
  const VmHandle& vm(int i) const { return env_.vms[static_cast<std::size_t>(i)]; }

  ClusterEnv& env_;
  JobConf conf_;
  sim::Rng rng_;
  int job_id_ = 0;
  std::uint64_t ctx_base_ = 0;
  SlotArbiter* arbiter_ = nullptr;

  std::vector<hdfs::DfsBlock> blocks_;
  std::vector<std::unique_ptr<MapTask>> maps_;        // current primary attempt
  std::vector<std::unique_ptr<MapTask>> spec_maps_;   // speculative copy, if any
  std::vector<std::unique_ptr<ReduceTask>> reduces_;  // current attempt per id

  // Graveyard: cancelled/failed attempts stay alive here until the job is
  // destroyed, so completions still in the event queue find a live object.
  std::vector<std::unique_ptr<MapTask>> retired_maps_;
  std::vector<std::unique_ptr<ReduceTask>> retired_reduces_;

  std::vector<int> pending_maps_;      // map ids not yet assigned
  std::vector<int> free_map_slots_;    // per VM
  std::vector<int> free_reduce_slots_; // per VM
  int next_reduce_to_place_ = 0;

  std::vector<char> map_done_flags_;   // per map id: committed output exists
  std::vector<int> map_running_;       // per map id: live attempt count (0..2)
  std::vector<int> map_failures_;      // per map id: failed (non-spec) attempts
  std::vector<int> reduce_failures_;   // per reduce id
  std::vector<char> reduce_shuffle_counted_;  // per reduce id
  // Per reduce id: a slot is taken and start_reducer is in flight. Guards
  // the assign_latency window where started() is still false, so the
  // relaunch scans cannot hand the same reducer a second slot.
  std::vector<char> reduce_assigned_;

  std::vector<MapOutput> completed_outputs_;
  int maps_done_ = 0;
  int reducers_shuffle_done_ = 0;
  int reduces_done_ = 0;
  bool reducers_launched_ = false;
  bool done_ = false;
  bool failed_ = false;
  bool failed_on_dead_vm_ = false;
  // Milestone latches: a map re-execution (output lost with its dead
  // TaskTracker) can take maps_done_ below the thresholds again; the phase
  // events must not re-fire when it recovers.
  bool first_map_done_fired_ = false;
  bool maps_done_fired_ = false;
  bool blocks_registered_ = false;
  std::string failure_;
  Time map_dur_sum_ = Time::zero();    // total runtime of finished maps

  JobStats stats_;
  double next_milestone_ = 0.05;
};

}  // namespace iosim::mapred
