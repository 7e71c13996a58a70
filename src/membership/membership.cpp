#include "membership/membership.hpp"

#include <cassert>

#include "check/check.hpp"
#include "trace/trace.hpp"
#include "virt/io_stream.hpp"

namespace iosim::membership {

MembershipService::MembershipService(mapred::ClusterEnv& env) : env_(env) {
  vms_.resize(static_cast<std::size_t>(env_.n_vms()));
  assert(env_.faults != nullptr &&
         "membership is only built for clusters with a fault plan");
  env_.faults->on_vm_down([this](int vm, sim::Time) { handle_vm_down(vm); });
  env_.faults->on_vm_up([this](int vm, sim::Time) { handle_vm_up(vm); });
}

void MembershipService::emit_instant(const char* name, int vm,
                                     std::int64_t arg) {
  auto* tr = trace::tracer();
  if (tr == nullptr) return;
  // Lazily interned + pinned: a run that never reaches this state keeps its
  // string table (and pinned digests) unchanged, and ring wrap on long soaks
  // cannot evict the names iosim-report greps for.
  const trace::Str n = tr->intern(name);
  tr->pin_name(n);
  tr->instant(tr->track("membership"), n, tr->ids.cat_fault, simr().now(),
              tr->intern("vm"), vm, tr->intern("arg"), arg);
}

// ---- liveness state machine -------------------------------------------------

bool MembershipService::schedulable(int vm) const {
  const VmState st = state(vm);
  return st == VmState::kAlive || st == VmState::kSuspect;
}

bool MembershipService::declared_dead(int vm) const {
  return state(vm) == VmState::kDead;
}

void MembershipService::handle_vm_down(int vm) {
  VmInfo& info = vms_[static_cast<std::size_t>(vm)];
  if (info.st == VmState::kDead || info.monitored) return;
  // The JobTracker does not see the outage edge — it sees heartbeats stop.
  // Walk the misses forward from here as a bounded event chain; a vm_up
  // bumps the generation and orphans the chain.
  info.monitored = true;
  schedule_miss_check(vm, info.generation, /*misses=*/1);
}

void MembershipService::schedule_miss_check(int vm, int generation,
                                            int misses) {
  simr().after(kHeartbeatPeriod, [this, vm, generation, misses] {
    VmInfo& info = vms_[static_cast<std::size_t>(vm)];
    if (info.generation != generation) return;  // VM came back; chain is stale
    if (env_.vm_alive(vm)) {
      // Heartbeats resumed without a vm_up edge we saw — stop counting.
      info.monitored = false;
      return;
    }
    if (misses >= kMissesToDead) {
      declare_dead(vm);
      return;
    }
    if (misses == kMissesToSuspect && info.st == VmState::kAlive) {
      info.st = VmState::kSuspect;
      ++counters_.suspects;
      emit_instant("tt_suspect", vm, misses);
    }
    schedule_miss_check(vm, generation, misses + 1);
  });
}

void MembershipService::declare_dead(int vm) {
  VmInfo& info = vms_[static_cast<std::size_t>(vm)];
  assert(info.st != VmState::kDead);
  info.st = VmState::kDead;
  info.monitored = false;
  info.strikes = 0;
  ++counters_.deaths;
  emit_instant("tt_dead", vm, static_cast<std::int64_t>(counters_.deaths));
  if (auto* ck = check::auditor()) {
    ck->on_vm_declared_dead(vm, simr().now().ns());
  }
  // Index loop: a callback may register further listeners.
  for (std::size_t i = 0; i < dead_cbs_.size(); ++i) {
    dead_cbs_[i](vm, simr().now());
  }
  enqueue_repairs(vm);
  pump_repairs();
}

void MembershipService::handle_vm_up(int vm) {
  VmInfo& info = vms_[static_cast<std::size_t>(vm)];
  ++info.generation;  // orphan any in-flight miss chain
  info.monitored = false;
  switch (info.st) {
    case VmState::kDead:
      // The TaskTracker re-registered: back in the cluster, clean slate.
      info.st = VmState::kAlive;
      info.strikes = 0;
      ++counters_.rejoins;
      emit_instant("tt_rejoin", vm, static_cast<std::int64_t>(counters_.rejoins));
      if (auto* ck = check::auditor()) {
        ck->on_vm_rejoined(vm, simr().now().ns());
      }
      for (std::size_t i = 0; i < again_cbs_.size(); ++i) {
        again_cbs_[i](vm, simr().now());
      }
      break;
    case VmState::kSuspect:
      info.st = VmState::kAlive;  // heartbeats resumed before the deadline
      break;
    case VmState::kBlacklisted:
      break;  // probation keeps running; the probe decides
    case VmState::kAlive:
      break;
  }
}

// ---- blacklist --------------------------------------------------------------

int MembershipService::schedulable_vm_count() const {
  int n = 0;
  for (int v = 0; v < env_.n_vms(); ++v) {
    if (schedulable(v) && env_.vm_alive(v)) ++n;
  }
  return n;
}

int MembershipService::blacklisted_vm_count() const {
  int n = 0;
  for (const VmInfo& i : vms_) {
    if (i.st == VmState::kBlacklisted) ++n;
  }
  return n;
}

void MembershipService::note_task_failure(int vm) {
  VmInfo& info = vms_[static_cast<std::size_t>(vm)];
  if (info.st == VmState::kDead || info.st == VmState::kBlacklisted) return;
  if (++info.strikes >= kBlacklistStrikes) blacklist_vm(vm);
}

void MembershipService::blacklist_vm(int vm) {
  // Overload protection for the protector itself: never blacklist more than
  // half the cluster, and never take the last schedulable VM — a fully
  // blacklisted cluster cannot run the probe jobs that would clear it.
  if (blacklisted_vm_count() + 1 > env_.n_vms() / 2) return;
  if (schedulable(vm) && env_.vm_alive(vm) && schedulable_vm_count() <= 1) {
    return;
  }
  VmInfo& info = vms_[static_cast<std::size_t>(vm)];
  info.st = VmState::kBlacklisted;
  ++counters_.blacklists;
  emit_instant("tt_blacklist", vm, info.strikes);
  if (auto* ck = check::auditor()) {
    ck->on_vm_blacklisted(vm, simr().now().ns());
  }
  schedule_probe(vm);
}

void MembershipService::schedule_probe(int vm) {
  simr().after(kProbation, [this, vm] {
    VmInfo& info = vms_[static_cast<std::size_t>(vm)];
    if (info.st != VmState::kBlacklisted) return;  // died / cleared meanwhile
    if (env_.vm_alive(vm)) {
      // The probe task ran clean: lift the blacklist.
      info.st = VmState::kAlive;
      info.strikes = 0;
      ++counters_.unblacklists;
      emit_instant("tt_probe_ok", vm,
                   static_cast<std::int64_t>(counters_.unblacklists));
      if (auto* ck = check::auditor()) {
        ck->on_vm_unblacklisted(vm, simr().now().ns());
      }
      for (std::size_t i = 0; i < again_cbs_.size(); ++i) {
        again_cbs_[i](vm, simr().now());
      }
      return;
    }
    // Probe unanswered: the VM is down, which is the failure detector's
    // problem, not the blacklist's. Re-probe after another probation — the
    // chain ends because a VM that stays down is declared dead well inside
    // one probation period, and the kBlacklisted check above stops us.
    schedule_probe(vm);
  });
}

// ---- re-replication ---------------------------------------------------------

std::vector<hdfs::DfsBlock>* MembershipService::find_table(int job_id) {
  for (auto& [id, table] : tables_) {
    if (id == job_id) return table;
  }
  return nullptr;
}

void MembershipService::register_job_blocks(int job_id,
                                            std::vector<hdfs::DfsBlock>* blocks) {
  assert(find_table(job_id) == nullptr && "job block table registered twice");
  tables_.emplace_back(job_id, blocks);
}

void MembershipService::unregister_job_blocks(int job_id) {
  for (auto it = tables_.begin(); it != tables_.end(); ++it) {
    if (it->first == job_id) {
      tables_.erase(it);
      break;
    }
  }
  // Queued repairs for the retired job are moot — its files are gone. Count
  // them so the auditor's lost == repaired + abandoned ledger still closes.
  std::vector<RepairItem> keep;
  keep.reserve(repair_queue_.size());
  for (const RepairItem& item : repair_queue_) {
    if (item.job_id == job_id) {
      abandon_repair(item, /*job_gone=*/true);
    } else {
      keep.push_back(item);
    }
  }
  repair_queue_ = std::move(keep);
}

void MembershipService::enqueue_repairs(int dead_vm) {
  // NameNode scan: every registered block with a replica on the dead VM is
  // under-replicated. Registration order, then block order — deterministic.
  for (const auto& [job_id, table] : tables_) {
    for (std::size_t b = 0; b < table->size(); ++b) {
      const hdfs::DfsBlock& blk = (*table)[b];
      bool hit = false;
      for (const auto& r : blk.replicas) {
        if (r.vm == dead_vm) hit = true;
      }
      if (!hit) continue;
      if (auto* ck = check::auditor()) {
        ck->on_replica_lost(job_id, blk.id, dead_vm, simr().now().ns());
      }
      repair_queue_.push_back(
          {job_id, static_cast<int>(b), dead_vm, /*attempts=*/0});
    }
  }
}

void MembershipService::pump_repairs() {
  while (active_repairs_ < kRepairStreams && !repair_queue_.empty()) {
    RepairItem item = repair_queue_.front();
    repair_queue_.erase(repair_queue_.begin());
    run_repair(item);
  }
}

void MembershipService::abandon_repair(const RepairItem& item, bool job_gone) {
  (job_gone ? counters_.blocks_dropped : counters_.blocks_lost) += 1;
  if (auto* ck = check::auditor()) {
    ck->on_replica_abandoned(item.job_id, item.block_index, simr().now().ns());
  }
}

void MembershipService::run_repair(RepairItem item) {
  std::vector<hdfs::DfsBlock>* table = find_table(item.job_id);
  if (table == nullptr) {
    abandon_repair(item, /*job_gone=*/true);
    return;
  }
  hdfs::DfsBlock& blk = (*table)[static_cast<std::size_t>(item.block_index)];
  // Source: a live, not-declared-dead replica holder other than the corpse.
  const hdfs::BlockReplica* src = nullptr;
  for (const auto& r : blk.replicas) {
    if (r.vm != item.dead_vm && env_.vm_alive(r.vm) && !declared_dead(r.vm)) {
      src = &r;
      break;
    }
  }
  if (src == nullptr) {
    abandon_repair(item, /*job_gone=*/false);  // data genuinely unreachable
    return;
  }
  const int target = env_.dfs->pick_remote_replica_vm(
      src->vm, [this](int v) { return env_.vm_alive(v) && !declared_dead(v); });
  if (target < 0 || target == item.dead_vm) {
    abandon_repair(item, /*job_gone=*/false);  // nowhere to put the copy
    return;
  }

  ++active_repairs_;
  const std::int64_t bytes = blk.bytes;
  const int src_vm = src->vm;
  const disk::Lba src_vlba = src->vlba;
  const mapred::VmHandle& sh = env_.vms[static_cast<std::size_t>(src_vm)];
  const mapred::VmHandle& th = env_.vms[static_cast<std::size_t>(target)];

  auto failed = [this, item]() mutable {
    --active_repairs_;
    RepairItem retry = item;
    if (++retry.attempts >= kRepairAttempts) {
      abandon_repair(retry, /*job_gone=*/false);
    } else {
      repair_queue_.push_back(retry);
    }
    pump_repairs();
  };

  // DataNode-side read of the live replica, the network hop, then the write
  // on the target — all through the per-VM server contexts, so repair I/O
  // contends with foreground shuffle and HDFS traffic in both elevators.
  virt::IoStreamParams rp;
  rp.unit_sectors = kIoUnitBytes / disk::kSectorBytes;
  rp.window = 2;
  virt::IoStream::run(
      *sh.vm, mapred::ctx::server(src_vm), src_vlba, bytes, iosched::Dir::kRead,
      /*sync=*/true, rp,
      [this, item, bytes, target, failed, &sh, &th](sim::Time,
                                                    iosched::IoStatus st) mutable {
        if (st != iosched::IoStatus::kOk) {
          failed();
          return;
        }
        env_.net->start_flow(
            sh.host, th.host, bytes,
            [this, item, bytes, target, failed, &th](sim::Time) mutable {
              const disk::Lba at = th.vm->alloc(
                  virt::DiskZone::kData, bytes / disk::kSectorBytes + 1);
              virt::IoStreamParams wp;
              wp.unit_sectors = kIoUnitBytes / disk::kSectorBytes;
              wp.window = 4;
              virt::IoStream::run(
                  *th.vm, mapred::ctx::server(target), at, bytes,
                  iosched::Dir::kWrite, /*sync=*/false, wp,
                  [this, item, bytes, target, at, failed](
                      sim::Time, iosched::IoStatus wst) mutable {
                    if (wst != iosched::IoStatus::kOk) {
                      failed();
                      return;
                    }
                    --active_repairs_;
                    finish_repair(item, target, at, bytes);
                    pump_repairs();
                  });
            });
      });
}

void MembershipService::finish_repair(const RepairItem& item, int target_vm,
                                      disk::Lba at, std::int64_t bytes) {
  std::vector<hdfs::DfsBlock>* table = find_table(item.job_id);
  if (table == nullptr) {
    // The job retired while the copy was in flight; the bytes moved but the
    // namespace entry is gone.
    abandon_repair(item, /*job_gone=*/true);
    return;
  }
  hdfs::DfsBlock& blk = (*table)[static_cast<std::size_t>(item.block_index)];
  for (auto& r : blk.replicas) {
    if (r.vm == item.dead_vm) {
      r.vm = target_vm;
      r.vlba = at;
      break;
    }
  }
  ++counters_.blocks_repaired;
  counters_.repair_bytes += static_cast<std::uint64_t>(bytes);
  emit_instant("blk_repair", target_vm, bytes);
  if (auto* ck = check::auditor()) {
    ck->on_replica_repaired(item.job_id, blk.id, item.dead_vm, target_vm,
                            simr().now().ns());
  }
}

}  // namespace iosim::membership
