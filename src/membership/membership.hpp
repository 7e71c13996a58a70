// iosim: cluster membership — failure detection, blacklisting, and HDFS
// re-replication.
//
// MembershipService is the self-healing layer the paper's testbed lacks: it
// watches TaskTracker liveness the way a JobTracker does (missed heartbeats
// against the simulator clock), escalates a silent VM through suspected →
// declared-dead, blacklists fail-slow VMs that keep burning task attempts,
// and reacts to a death the way the NameNode does — scanning every
// registered job's block table for replicas on the dead VM and copying each
// under-replicated block from a live source to a fresh target through both
// elevators, so repair traffic contends with foreground jobs on the same
// disks and network the paper studies.
//
// Determinism: the service consumes no randomness. Heartbeat-miss checks
// are bounded event chains hung off the fault injector's vm_down/vm_up
// edges (never periodic self-rescheduling, so an idle cluster still
// drains), repair targets come from the HDFS round-robin cursor, and block
// tables are scanned in registration order. Constructed only when a fault
// plan exists — fault-free runs build no service and stay byte-identical.
//
// Trace instants (lazily interned + pinned, track "membership"):
//   tt_suspect    heartbeats missed past the suspicion threshold
//   tt_dead       declared dead; re-replication scan starts
//   tt_blacklist  strikes exhausted; VM on probation
//   tt_probe_ok   probation probe answered; VM schedulable again
//   tt_rejoin     a declared-dead VM reported back in
//   blk_repair    one block's replica count restored (arg = bytes)
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mapred/cluster_env.hpp"
#include "mapred/membership_iface.hpp"

namespace iosim::membership {

class MembershipService final : public mapred::MembershipIface {
 public:
  /// TaskTracker heartbeat interval (Hadoop 0.19 default: 3 s).
  static constexpr sim::Time kHeartbeatPeriod = sim::Time::from_sec(3);
  /// Consecutive missed heartbeats before suspicion / declared-dead.
  static constexpr int kMissesToSuspect = 2;
  static constexpr int kMissesToDead = 4;
  /// Failed task attempts on one VM before it is blacklisted.
  static constexpr int kBlacklistStrikes = 3;
  /// Probation: time until the un-blacklist probe.
  static constexpr sim::Time kProbation = sim::Time::from_sec(30);
  /// Concurrent block-repair copies (dfs.max-repl-streams flavor).
  static constexpr int kRepairStreams = 4;
  /// Per-block copy attempts before the repair is given up.
  static constexpr int kRepairAttempts = 3;
  /// Bio sizing for repair streams (matches JobConf::io_unit_bytes default).
  static constexpr std::int64_t kIoUnitBytes = 256 * 1024;

  explicit MembershipService(mapred::ClusterEnv& env);
  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  // -- MembershipIface --------------------------------------------------------
  bool schedulable(int vm) const override;
  bool declared_dead(int vm) const override;
  void note_task_failure(int vm) override;
  void register_job_blocks(int job_id,
                           std::vector<hdfs::DfsBlock>* blocks) override;
  void unregister_job_blocks(int job_id) override;
  void on_declared_dead(VmEvent cb) override { dead_cbs_.push_back(std::move(cb)); }
  void on_schedulable_again(VmEvent cb) override {
    again_cbs_.push_back(std::move(cb));
  }

  // -- observability ----------------------------------------------------------

  enum class VmState : std::uint8_t { kAlive, kSuspect, kDead, kBlacklisted };
  VmState state(int vm) const {
    return vms_[static_cast<std::size_t>(vm)].st;
  }
  bool blacklisted(int vm) const {
    return state(vm) == VmState::kBlacklisted;
  }

  struct Counters {
    std::uint64_t suspects = 0;       // suspicion transitions
    std::uint64_t deaths = 0;         // declared-dead transitions
    std::uint64_t rejoins = 0;        // declared-dead VMs that came back
    std::uint64_t blacklists = 0;
    std::uint64_t unblacklists = 0;   // successful probation probes
    std::uint64_t blocks_repaired = 0;
    std::uint64_t blocks_lost = 0;    // no live source / target, or copy
                                      // attempts exhausted — data at risk
    std::uint64_t blocks_dropped = 0; // owning job retired before repair
    std::uint64_t repair_bytes = 0;   // payload bytes moved by repairs
  };
  const Counters& counters() const { return counters_; }

 private:
  struct VmInfo {
    VmState st = VmState::kAlive;
    /// Bumped on every vm_up; in-flight miss chains compare and die.
    int generation = 0;
    int strikes = 0;
    bool monitored = false;  // a heartbeat-miss chain is in flight
  };
  struct RepairItem {
    int job_id = 0;
    int block_index = 0;  // index into the registered table
    int dead_vm = -1;
    int attempts = 0;
  };

  sim::Simulator& simr() { return *env_.simr; }
  std::vector<hdfs::DfsBlock>* find_table(int job_id);

  void handle_vm_down(int vm);
  void handle_vm_up(int vm);
  void schedule_miss_check(int vm, int generation, int misses);
  void declare_dead(int vm);
  void blacklist_vm(int vm);
  void schedule_probe(int vm);
  int schedulable_vm_count() const;
  int blacklisted_vm_count() const;

  void enqueue_repairs(int dead_vm);
  void pump_repairs();
  void run_repair(RepairItem item);
  void abandon_repair(const RepairItem& item, bool job_gone);
  void finish_repair(const RepairItem& item, int target_vm, disk::Lba at,
                     std::int64_t bytes);

  void emit_instant(const char* name, int vm, std::int64_t arg);

  mapred::ClusterEnv& env_;
  std::vector<VmInfo> vms_;
  /// Registered block tables in registration order (deterministic scans).
  std::vector<std::pair<int, std::vector<hdfs::DfsBlock>*>> tables_;
  std::vector<VmEvent> dead_cbs_;
  std::vector<VmEvent> again_cbs_;
  std::vector<RepairItem> repair_queue_;  // FIFO
  int active_repairs_ = 0;
  Counters counters_;
};

}  // namespace iosim::membership
