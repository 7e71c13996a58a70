// iosim: pluggable JobTracker slot-allocation policies.
//
// PolicyArbiter is the cluster-wide slot ledger behind mapred::SlotArbiter:
// it tracks per-VM in-use counts (the physical TaskTracker capacity) and
// per-job holdings, and computes each job's cluster-wide entitlement from
// the installed policy:
//
//   * FIFO (Hadoop's default JobQueueTaskScheduler): jobs ordered by
//     (priority desc, arrival asc) take as many slots as they can use;
//     later jobs get what is left.
//   * Fair (the Fair Scheduler): slots are water-filled across jobs one at
//     a time, each round granting the job with the smallest
//     granted/weight ratio (ties by arrival), capped by its demand —
//     weighted max-min fairness, work-conserving by construction.
//   * Capacity (the Capacity Scheduler): every class owns a guaranteed
//     fraction of the cluster's slots (floor(share * M); all-zero shares
//     mean an equal split), handed out FIFO within the class; slots a class
//     leaves idle are lent to other classes in class order.
//
// Entitlements are recomputed from live demand on every can_acquire query —
// a pure function of the registered jobs' (held, pending) state, so the
// same event order always grants the same slots (the determinism contract
// of the SlotArbiter seam). Demand is pulled through per-job callbacks
// instead of Job pointers so the policies unit-test without a cluster.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mapred/slot_arbiter.hpp"
#include "tenancy/stream_spec.hpp"

namespace iosim::sim {
class Simulator;
}

namespace iosim::tenancy {

class PolicyArbiter final : public mapred::SlotArbiter {
 public:
  /// `simr` (optional) timestamps the auditor's slot events.
  PolicyArbiter(Policy policy, int n_vms, int map_slots_per_vm,
                int reduce_slots_per_vm, sim::Simulator* simr = nullptr);

  /// Unassigned demand of a job: map tasks waiting for a slot
  /// (reduce=false) or launched-but-unstarted reducers (reduce=true).
  using DemandFn = std::function<int(bool reduce)>;

  /// Register a job. `order` is the admission sequence number (FIFO ties).
  void admit(int job_id, int class_index, int priority, double weight,
             int order, DemandFn demand);
  /// Per-class guaranteed fractions for the Capacity policy, indexed by
  /// class_index. Unset or all-zero = equal split.
  void set_class_shares(std::vector<double> shares);

  /// Fires after every slot release — the stream engine's work-conservation
  /// signal (freed capacity may now belong to a different job's quota).
  std::function<void()> on_release;

  // mapred::SlotArbiter
  bool can_acquire_map(int job_id, int vm) const override;
  void acquire_map(int job_id, int vm) override;
  void release_map(int job_id, int vm) override;
  bool can_acquire_reduce(int job_id, int vm) const override;
  void acquire_reduce(int job_id, int vm) override;
  void release_reduce(int job_id, int vm) override;
  void retire_job(int job_id) override;

  /// The job's current cluster-wide entitlement under the policy (held +
  /// grantable). Exposed for the hand-computed policy tests.
  int quota(int job_id, bool reduce) const;

  int held(int job_id, bool reduce) const;
  int in_use(int vm, bool reduce) const {
    return reduce ? reduce_in_use_[static_cast<std::size_t>(vm)]
                  : map_in_use_[static_cast<std::size_t>(vm)];
  }
  Policy policy() const { return policy_; }

 private:
  struct Entry {
    int job_id = 0;
    int class_index = 0;
    int priority = 0;
    double weight = 1.0;
    int order = 0;
    bool live = true;
    DemandFn demand;
    int map_held = 0;
    int reduce_held = 0;
    // Per-VM holdings, so retiring a dead job returns slots on exactly the
    // VMs it occupied (a greedy drain would corrupt other jobs' VM counts).
    std::vector<int> map_held_vm;
    std::vector<int> reduce_held_vm;
  };

  Entry& entry_of(int job_id);
  const Entry* find(int job_id) const;
  std::int64_t now_ns() const;

  /// Water-fill / greedy entitlement of every live job for one slot type;
  /// returns grants indexed like jobs_, in scratch_ (valid until the next
  /// call).
  const std::vector<int>& compute_grants(bool reduce) const;

  Policy policy_;
  int n_vms_;
  int map_slots_per_vm_;
  int reduce_slots_per_vm_;
  sim::Simulator* simr_;
  std::vector<double> class_shares_;
  std::vector<Entry> jobs_;
  std::vector<int> map_in_use_;     // per VM
  std::vector<int> reduce_in_use_;  // per VM

  /// compute_grants' working lists, kept across calls: every slot request
  /// asks for a quota, and the lists reach their peak size once.
  struct Scratch {
    std::vector<int> grants;              // indexed like jobs_
    std::vector<int> want;                // indexed like jobs_
    std::vector<std::size_t> live;        // jobs with want > 0
    std::vector<std::size_t> order;       // live, in grant order
    std::vector<int> guaranteed;          // Capacity: per class
  };
  mutable Scratch scratch_;
};

}  // namespace iosim::tenancy
