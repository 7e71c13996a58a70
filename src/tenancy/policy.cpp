#include "tenancy/policy.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "check/check.hpp"
#include "sim/simulator.hpp"

namespace iosim::tenancy {

PolicyArbiter::PolicyArbiter(Policy policy, int n_vms, int map_slots_per_vm,
                             int reduce_slots_per_vm, sim::Simulator* simr)
    : policy_(policy), n_vms_(n_vms), map_slots_per_vm_(map_slots_per_vm),
      reduce_slots_per_vm_(reduce_slots_per_vm), simr_(simr),
      map_in_use_(static_cast<std::size_t>(n_vms), 0),
      reduce_in_use_(static_cast<std::size_t>(n_vms), 0) {}

void PolicyArbiter::admit(int job_id, int class_index, int priority,
                          double weight, int order, DemandFn demand) {
  Entry e;
  e.job_id = job_id;
  e.class_index = class_index;
  e.priority = priority;
  e.weight = weight > 0.0 ? weight : 1.0;
  e.order = order;
  e.demand = std::move(demand);
  e.map_held_vm.assign(static_cast<std::size_t>(n_vms_), 0);
  e.reduce_held_vm.assign(static_cast<std::size_t>(n_vms_), 0);
  jobs_.push_back(std::move(e));
}

void PolicyArbiter::set_class_shares(std::vector<double> shares) {
  class_shares_ = std::move(shares);
}

PolicyArbiter::Entry& PolicyArbiter::entry_of(int job_id) {
  for (Entry& e : jobs_) {
    if (e.job_id == job_id) return e;
  }
  assert(false && "slot traffic from a job the arbiter never admitted");
  static Entry orphan;
  return orphan;
}

const PolicyArbiter::Entry* PolicyArbiter::find(int job_id) const {
  for (const Entry& e : jobs_) {
    if (e.job_id == job_id) return &e;
  }
  return nullptr;
}

std::int64_t PolicyArbiter::now_ns() const {
  return simr_ != nullptr ? simr_->now().ns() : 0;
}

const std::vector<int>& PolicyArbiter::compute_grants(bool reduce) const {
  const int total =
      n_vms_ * (reduce ? reduce_slots_per_vm_ : map_slots_per_vm_);
  std::vector<int>& grants = scratch_.grants;
  grants.assign(jobs_.size(), 0);

  // Want = what the job is already holding plus its unassigned demand; a
  // grant may never land below the holding (no preemption — over-quota
  // jobs just stop acquiring).
  std::vector<int>& want = scratch_.want;
  want.assign(jobs_.size(), 0);
  std::vector<std::size_t>& live = scratch_.live;
  live.clear();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Entry& e = jobs_[i];
    if (!e.live) continue;
    const int held = reduce ? e.reduce_held : e.map_held;
    const int pending = e.demand ? e.demand(reduce) : 0;
    want[i] = held + (pending > 0 ? pending : 0);
    if (want[i] > 0) live.push_back(i);
  }
  int remaining = total;

  const auto grant_upto = [&](std::size_t i, int cap) {
    const int g = std::min({want[i] - grants[i], cap, remaining});
    if (g <= 0) return 0;
    grants[i] += g;
    remaining -= g;
    return g;
  };

  switch (policy_) {
    case Policy::kFifo: {
      // Priority order, arrival breaking ties; each job takes all it can.
      std::vector<std::size_t>& order = scratch_.order;
      order = live;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (jobs_[a].priority != jobs_[b].priority) {
          return jobs_[a].priority > jobs_[b].priority;
        }
        return jobs_[a].order < jobs_[b].order;
      });
      for (std::size_t i : order) grant_upto(i, total);
      break;
    }
    case Policy::kFair: {
      // Weighted max-min water-fill, one slot per round to the job with the
      // lowest granted/weight ratio (cross-multiplied; ties by arrival).
      while (remaining > 0) {
        std::size_t best = jobs_.size();
        for (std::size_t i : live) {
          if (grants[i] >= want[i]) continue;
          if (best == jobs_.size()) {
            best = i;
            continue;
          }
          const double lhs = grants[i] * jobs_[best].weight;
          const double rhs = grants[best] * jobs_[i].weight;
          if (lhs < rhs || (lhs == rhs && jobs_[i].order < jobs_[best].order)) {
            best = i;
          }
        }
        if (best == jobs_.size()) break;  // all demand satisfied
        grants[best] += 1;
        --remaining;
      }
      break;
    }
    case Policy::kCapacity: {
      // Guaranteed floor(share * total) per class, FIFO within the class;
      // unused capacity is then lent across classes in class order.
      int n_classes = static_cast<int>(class_shares_.size());
      for (std::size_t i : live) {
        n_classes = std::max(n_classes, jobs_[i].class_index + 1);
      }
      if (n_classes == 0) break;
      const double share_sum = std::accumulate(
          class_shares_.begin(), class_shares_.end(), 0.0);
      std::vector<int>& guaranteed = scratch_.guaranteed;
      guaranteed.assign(static_cast<std::size_t>(n_classes), 0);
      for (int c = 0; c < n_classes; ++c) {
        const double share =
            share_sum > 0.0
                ? (c < static_cast<int>(class_shares_.size()) ? class_shares_[static_cast<std::size_t>(c)] : 0.0) /
                      share_sum
                : 1.0 / n_classes;
        guaranteed[static_cast<std::size_t>(c)] =
            static_cast<int>(share * total);
      }
      std::vector<std::size_t>& order = scratch_.order;
      order = live;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (jobs_[a].class_index != jobs_[b].class_index) {
          return jobs_[a].class_index < jobs_[b].class_index;
        }
        return jobs_[a].order < jobs_[b].order;
      });
      for (std::size_t i : order) {
        auto& budget = guaranteed[static_cast<std::size_t>(jobs_[i].class_index)];
        budget -= grant_upto(i, budget);
      }
      // Borrowing pass: whatever the guarantees left idle, in class order.
      for (std::size_t i : order) grant_upto(i, total);
      break;
    }
  }
  return grants;
}

int PolicyArbiter::quota(int job_id, bool reduce) const {
  const std::vector<int>& grants = compute_grants(reduce);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].job_id == job_id) return grants[i];
  }
  return 0;
}

int PolicyArbiter::held(int job_id, bool reduce) const {
  const Entry* e = find(job_id);
  return e == nullptr ? 0 : (reduce ? e->reduce_held : e->map_held);
}

bool PolicyArbiter::can_acquire_map(int job_id, int vm) const {
  if (map_in_use_[static_cast<std::size_t>(vm)] >= map_slots_per_vm_) {
    return false;
  }
  const Entry* e = find(job_id);
  if (e == nullptr || !e->live) return false;
  return e->map_held < quota(job_id, /*reduce=*/false);
}

void PolicyArbiter::acquire_map(int job_id, int vm) {
  Entry& e = entry_of(job_id);
  ++e.map_held;
  ++e.map_held_vm[static_cast<std::size_t>(vm)];
  const int after = ++map_in_use_[static_cast<std::size_t>(vm)];
  if (auto* ck = check::auditor()) {
    ck->on_slot_acquire(job_id, vm, /*reduce=*/false, after, map_slots_per_vm_,
                        now_ns());
  }
}

void PolicyArbiter::release_map(int job_id, int vm) {
  Entry& e = entry_of(job_id);
  const int before = map_in_use_[static_cast<std::size_t>(vm)];
  if (auto* ck = check::auditor()) {
    ck->on_slot_release(job_id, vm, /*reduce=*/false, before, now_ns());
  }
  --e.map_held;
  --e.map_held_vm[static_cast<std::size_t>(vm)];
  --map_in_use_[static_cast<std::size_t>(vm)];
  if (on_release) on_release();
}

bool PolicyArbiter::can_acquire_reduce(int job_id, int vm) const {
  if (reduce_in_use_[static_cast<std::size_t>(vm)] >= reduce_slots_per_vm_) {
    return false;
  }
  const Entry* e = find(job_id);
  if (e == nullptr || !e->live) return false;
  return e->reduce_held < quota(job_id, /*reduce=*/true);
}

void PolicyArbiter::acquire_reduce(int job_id, int vm) {
  Entry& e = entry_of(job_id);
  ++e.reduce_held;
  ++e.reduce_held_vm[static_cast<std::size_t>(vm)];
  const int after = ++reduce_in_use_[static_cast<std::size_t>(vm)];
  if (auto* ck = check::auditor()) {
    ck->on_slot_acquire(job_id, vm, /*reduce=*/true, after,
                        reduce_slots_per_vm_, now_ns());
  }
}

void PolicyArbiter::release_reduce(int job_id, int vm) {
  Entry& e = entry_of(job_id);
  const int before = reduce_in_use_[static_cast<std::size_t>(vm)];
  if (auto* ck = check::auditor()) {
    ck->on_slot_release(job_id, vm, /*reduce=*/true, before, now_ns());
  }
  --e.reduce_held;
  --e.reduce_held_vm[static_cast<std::size_t>(vm)];
  --reduce_in_use_[static_cast<std::size_t>(vm)];
  if (on_release) on_release();
}

void PolicyArbiter::retire_job(int job_id) {
  Entry* e = nullptr;
  for (Entry& j : jobs_) {
    if (j.job_id == job_id) e = &j;
  }
  if (e == nullptr || !e->live) return;
  e->live = false;
  e->demand = nullptr;
  // An aborted job may die between acquire and release; hand its slots
  // back so the survivors' capacity is not leaked. The per-VM holding
  // ledger says exactly which TaskTrackers they sit on, so the release
  // lands on the right in-use counters.
  const bool leaked = e->map_held > 0 || e->reduce_held > 0;
  auto* ck = check::auditor();
  for (int v = 0; v < n_vms_; ++v) {
    auto& held = e->map_held_vm[static_cast<std::size_t>(v)];
    auto& used = map_in_use_[static_cast<std::size_t>(v)];
    while (held > 0) {
      if (ck != nullptr) {
        ck->on_slot_release(job_id, v, /*reduce=*/false, used, now_ns());
      }
      --used;
      --held;
      --e->map_held;
    }
  }
  for (int v = 0; v < n_vms_; ++v) {
    auto& held = e->reduce_held_vm[static_cast<std::size_t>(v)];
    auto& used = reduce_in_use_[static_cast<std::size_t>(v)];
    while (held > 0) {
      if (ck != nullptr) {
        ck->on_slot_release(job_id, v, /*reduce=*/true, used, now_ns());
      }
      --used;
      --held;
      --e->reduce_held;
    }
  }
  if (leaked && on_release) on_release();
}

}  // namespace iosim::tenancy
