#include "mapred/job.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "check/check.hpp"
#include "trace/trace.hpp"

namespace iosim::mapred {

namespace {
/// The milestone check runs the full in-order sum at least this often.
constexpr int kProgressSumEvery = 1024;

// `what` selects a pre-interned name from the *installed* tracer, which the
// call site cannot touch before the null check.
void job_instant(trace::Str trace::Tracer::CommonIds::* what, sim::Time t) {
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.*what, tr->ids.cat_mapred, t);
  }
}

// `slot` runs its current observer (if any), then `next`.
template <class... A>
void append(std::function<void(A...)>& slot, std::function<void(A...)> next) {
  if (!next) return;
  if (!slot) {
    slot = std::move(next);
    return;
  }
  slot = [prev = std::move(slot), next = std::move(next)](A... a) {
    prev(a...);
    next(a...);
  };
}
}  // namespace

void Job::append_hooks(Hooks h) {
  append(on_maps_done, std::move(h.on_maps_done));
  append(on_shuffle_done, std::move(h.on_shuffle_done));
  append(on_done, std::move(h.on_done));
  append(on_failed, std::move(h.on_failed));
}

Job::Job(ClusterEnv& env, JobConf conf, std::uint64_t seed)
    : env_(env), conf_(std::move(conf)), rng_(seed) {}

Job::~Job() { unregister_blocks(); }

void Job::unregister_blocks() {
  if (!blocks_registered_) return;
  blocks_registered_ = false;
  env_.members->unregister_job_blocks(job_id_);
}

void Job::run() {
  const int n_vms = env_.n_vms();
  assert(n_vms > 0);
  const auto blocks_per_vm =
      static_cast<int>((conf_.input_bytes_per_vm + conf_.block_bytes - 1) / conf_.block_bytes);

  if (auto* ck = check::auditor()) {
    // Before the HDFS layout, so the blocks created next are attributed to
    // this job (block ids restart at 0 for every job's input).
    ck->on_job_start(job_id_, blocks_per_vm * n_vms, conf_.n_reduces(n_vms),
                     conf_.max_task_attempts);
  }

  // Lay out the input in HDFS (allocations land in each VM's data zone).
  blocks_ = env_.dfs->create_input(
      blocks_per_vm, conf_.block_bytes, [this](int vm_id, disk::Lba sectors) {
        return env_.vms[static_cast<std::size_t>(vm_id)].vm->alloc(
            virt::DiskZone::kData, sectors);
      });
  if (env_.members != nullptr) {
    // NameNode bookkeeping: membership re-replicates these blocks when a
    // replica holder is declared dead (repairs mutate blocks_ in place, so
    // newly placed attempts see the healed replica set).
    env_.members->register_job_blocks(job_id_, &blocks_);
    blocks_registered_ = true;
  }

  stats_.t_start = simr().now();
  stats_.maps_total = static_cast<int>(blocks_.size());
  stats_.reduces_total = conf_.n_reduces(n_vms);
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.job_start, tr->ids.cat_mapred,
                stats_.t_start, tr->ids.task, stats_.maps_total, tr->ids.value,
                stats_.reduces_total);
  }

  maps_.reserve(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    maps_.push_back(std::make_unique<MapTask>(*this, static_cast<int>(i), blocks_[i],
                                              /*vm=*/-1));
    pending_maps_.push_back(static_cast<int>(i));
  }
  spec_maps_.resize(blocks_.size());
  map_done_flags_.assign(blocks_.size(), 0);
  map_running_.assign(blocks_.size(), 0);
  map_failures_.assign(blocks_.size(), 0);
  for (int r = 0; r < stats_.reduces_total; ++r) {
    // Reducers are placed round-robin across VMs up to the slot budget.
    reduces_.push_back(std::make_unique<ReduceTask>(*this, r, r % n_vms));
  }
  reduce_failures_.assign(static_cast<std::size_t>(stats_.reduces_total), 0);
  // Error bound of the running progress estimate (DESIGN.md §8.8): with R
  // reducers and at most N deltas since the last full sum, the estimate is
  // within (2R + 2N + 8) unit roundoffs of the full sum; twice that is the
  // slack.
  progress_slack_ = 4.0 * (static_cast<double>(reduces_.size()) + kProgressSumEvery + 4) *
                    (std::numeric_limits<double>::epsilon() / 2);
  reduce_shuffle_counted_.assign(static_cast<std::size_t>(stats_.reduces_total), 0);
  reduce_assigned_.assign(static_cast<std::size_t>(stats_.reduces_total), 0);

  free_map_slots_.assign(static_cast<std::size_t>(n_vms), conf_.map_slots);
  free_reduce_slots_.assign(static_cast<std::size_t>(n_vms), conf_.reduce_slots);

  if (env_.faults != nullptr) {
    // The JobTracker loses heartbeats from a dead TaskTracker: running
    // attempts there are declared failed, and the VM is masked from the
    // scheduler until it reports back in.
    env_.faults->on_vm_down([this](int v, sim::Time) { handle_vm_down(v); });
    env_.faults->on_vm_up([this](int v, sim::Time) { handle_vm_up(v); });
  }
  if (env_.members != nullptr) {
    env_.members->on_declared_dead(
        [this](int v, sim::Time) { handle_vm_declared_dead(v); });
    // Fresh capacity after a rejoin or a cleared blacklist: rescan.
    env_.members->on_schedulable_again(
        [this](int v, sim::Time) { handle_vm_up(v); });
  }
  if (conf_.speculative_execution) schedule_speculation_scan();

  try_assign_maps();
}

bool Job::map_slot_free(int v) const {
  return arbiter_ != nullptr ? arbiter_->can_acquire_map(job_id_, v)
                             : free_map_slots_[static_cast<std::size_t>(v)] > 0;
}

void Job::take_map_slot(int v) {
  if (arbiter_ != nullptr) {
    arbiter_->acquire_map(job_id_, v);
  } else {
    --free_map_slots_[static_cast<std::size_t>(v)];
  }
}

void Job::give_map_slot(int v) {
  if (arbiter_ != nullptr) {
    arbiter_->release_map(job_id_, v);
  } else {
    ++free_map_slots_[static_cast<std::size_t>(v)];
  }
}

bool Job::reduce_slot_free(int v) const {
  return arbiter_ != nullptr ? arbiter_->can_acquire_reduce(job_id_, v)
                             : free_reduce_slots_[static_cast<std::size_t>(v)] > 0;
}

void Job::take_reduce_slot(int v) {
  if (arbiter_ != nullptr) {
    arbiter_->acquire_reduce(job_id_, v);
  } else {
    --free_reduce_slots_[static_cast<std::size_t>(v)];
  }
}

void Job::give_reduce_slot(int v) {
  if (arbiter_ != nullptr) {
    arbiter_->release_reduce(job_id_, v);
  } else {
    ++free_reduce_slots_[static_cast<std::size_t>(v)];
  }
}

int Job::queued_reduce_count() const {
  if (!reducers_launched_ || done_ || failed_) return 0;
  int n = 0;
  for (const auto& rt : reduces_) {
    if (rt && !reduce_assigned_[static_cast<std::size_t>(rt->task_id())]) ++n;
  }
  return n;
}

void Job::kick() {
  if (done_ || failed_) return;
  try_assign_maps();
  pump_queued_reducers();
}

void Job::try_assign_maps() {
  const int n_vms = env_.n_vms();
  for (int v = 0; v < n_vms; ++v) {
    if (!env_.schedulable(v)) continue;
    while (map_slot_free(v) && !pending_maps_.empty()) {
      // Locality first: a pending map whose block has a replica here.
      auto chosen = pending_maps_.end();
      for (auto it = pending_maps_.begin(); it != pending_maps_.end(); ++it) {
        for (const auto& rep : blocks_[static_cast<std::size_t>(*it)].replicas) {
          if (rep.vm == v) {
            chosen = it;
            break;
          }
        }
        if (chosen != pending_maps_.end()) break;
      }
      if (chosen == pending_maps_.end()) chosen = pending_maps_.begin();

      const int map_id = *chosen;
      pending_maps_.erase(chosen);
      take_map_slot(v);

      // Re-create the task bound to its VM (placement decided at assignment).
      const auto idx = static_cast<std::size_t>(map_id);
      maps_[idx] = std::make_unique<MapTask>(*this, map_id, blocks_[idx], v,
                                             /*attempt=*/map_failures_[idx] + 1);
      ++map_running_[idx];
      if (auto* ck = check::auditor()) {
        ck->on_map_attempt_start(job_id_, map_id, map_failures_[idx] + 1, v,
                                 map_running_[idx], /*speculative=*/false,
                                 simr().now().ns());
      }
      MapTask* task = maps_[idx].get();
      simr().after(conf_.assign_latency, [task] { task->start(); });
    }
  }
}

void Job::start_reducer(ReduceTask* task) {
  if (auto* ck = check::auditor()) {
    ck->on_reduce_attempt_start(job_id_, task->task_id(), task->attempt(),
                                task->vm(), simr().now().ns());
  }
  simr().after(conf_.assign_latency, [this, task] {
    for (const auto& mo : completed_outputs_) task->map_output_ready(mo);
    task->start();
  });
}

int Job::resolve_reduce_vm(int preferred) const {
  if (env_.schedulable(preferred)) return preferred;
  const int n = env_.n_vms();
  for (int i = 1; i <= n; ++i) {
    const int cand = (preferred + i) % n;
    if (env_.schedulable(cand)) return cand;
  }
  return -1;
}

void Job::launch_reducers_if_ready() {
  if (reducers_launched_) return;
  const int threshold = std::max(
      1, static_cast<int>(conf_.slowstart * static_cast<double>(stats_.maps_total)));
  if (maps_done_ < threshold) return;
  reducers_launched_ = true;

  for (auto& rt : reduces_) {
    if (!rt) continue;
    // Re-place a reducer whose round-robin VM is dead or blacklisted; with
    // no schedulable VM at all it stays queued for pump_queued_reducers.
    const int v = resolve_reduce_vm(rt->vm());
    if (v < 0) continue;
    if (v != rt->vm()) {
      rt = std::make_unique<ReduceTask>(*this, rt->task_id(), v, rt->attempt());
    }
    if (!reduce_slot_free(v)) {
      // Over-subscribed (more reducers than slots): queue behind a slot by
      // keeping it unstarted; it will launch when a reducer on v finishes.
      continue;
    }
    reduce_assigned_[static_cast<std::size_t>(rt->task_id())] = 1;
    take_reduce_slot(v);
    start_reducer(rt.get());
  }
}

void Job::pump_queued_reducers() {
  if (!reducers_launched_) return;
  for (auto& rt : reduces_) {
    if (!rt || reduce_assigned_[static_cast<std::size_t>(rt->task_id())]) continue;
    const int v = resolve_reduce_vm(rt->vm());
    if (v < 0 || !reduce_slot_free(v)) continue;
    if (v != rt->vm()) {
      rt = std::make_unique<ReduceTask>(*this, rt->task_id(), v, rt->attempt());
    }
    reduce_assigned_[static_cast<std::size_t>(rt->task_id())] = 1;
    take_reduce_slot(v);
    start_reducer(rt.get());
  }
}

void Job::map_finished(MapTask& task, MapOutput out) {
  if (failed_) return;
  const int id = out.map_id;
  const auto idx = static_cast<std::size_t>(id);
  --map_running_[idx];
  give_map_slot(task.vm());

  if (map_done_flags_[idx]) {
    // Photo finish: the other copy committed in the same event batch. The
    // later copy's output is discarded, Hadoop-style.
    retire_map_attempt(task);
    return;
  }
  map_done_flags_[idx] = 1;
  if (auto* ck = check::auditor()) ck->on_map_commit(job_id_, id, simr().now().ns());
  map_dur_sum_ += simr().now() - task.t_start();

  // Winner takes first: cancel the losing copy, free its slot.
  auto cancel_copy = [this](std::unique_ptr<MapTask>& holder) {
    if (!holder || !holder->running()) return;
    MapTask* loser = holder.get();
    loser->cancel();
    --map_running_[static_cast<std::size_t>(loser->task_id())];
    give_map_slot(loser->vm());
    retired_maps_.push_back(std::move(holder));
  };
  if (spec_maps_[idx] && spec_maps_[idx].get() != &task) cancel_copy(spec_maps_[idx]);
  if (maps_[idx] && maps_[idx].get() != &task) cancel_copy(maps_[idx]);

  ++maps_done_;
  stats_.map_input_bytes += blocks_[idx].bytes;
  stats_.map_output_bytes += out.bytes;
  completed_outputs_.push_back(out);

  if (maps_done_ == 1 && !first_map_done_fired_) {
    first_map_done_fired_ = true;
    stats_.t_first_map_done = simr().now();
    job_instant(&trace::Tracer::CommonIds::first_map_done, stats_.t_first_map_done);
    if (on_first_map_done) on_first_map_done(simr().now());
  }
  // Feed reducers that already started.
  for (auto& rt : reduces_) {
    if (rt && rt->started()) rt->map_output_ready(out);
  }

  if (maps_done_ == stats_.maps_total) {
    if (!maps_done_fired_) {
      maps_done_fired_ = true;
      stats_.t_maps_done = simr().now();
      job_instant(&trace::Tracer::CommonIds::maps_done, stats_.t_maps_done);
      if (on_maps_done) on_maps_done(simr().now());
    }
  } else {
    try_assign_maps();
  }
  launch_reducers_if_ready();
  update_progress();
}

void Job::map_attempt_failed(MapTask& task) {
  const int id = task.task_id();
  const auto idx = static_cast<std::size_t>(id);
  --map_running_[idx];
  give_map_slot(task.vm());
  ++stats_.map_attempts_failed;
  const bool spec = task.speculative();
  const int failed_vm = task.vm();
  retire_map_attempt(task);
  if (env_.members != nullptr && env_.vm_alive(failed_vm)) {
    // A failure on a live VM is a strike against it (fail-slow evidence);
    // failures caused by the VM dying under the task are the failure
    // detector's business, not the blacklist's.
    env_.members->note_task_failure(failed_vm);
  }
  if (failed_ || done_ || map_done_flags_[idx]) return;

  auto requeue_after = [this, id](sim::Time delay) {
    simr().after(delay, [this, id] {
      const auto i = static_cast<std::size_t>(id);
      if (failed_ || done_ || map_done_flags_[i] || map_running_[i] > 0) return;
      if (map_pending(id)) return;
      pending_maps_.push_back(id);
      try_assign_maps();
    });
  };

  if (spec) {
    // A lost speculative copy does not burn the attempt budget; but if the
    // primary already failed too, it owns nothing anymore — re-queue here.
    if (map_running_[idx] == 0 && !map_pending(id)) {
      requeue_after(backoff_delay(std::max(1, map_failures_[idx])));
    }
    return;
  }

  const int fails = ++map_failures_[idx];
  if (fails >= conf_.max_task_attempts) {
    if (!env_.vm_alive(failed_vm)) failed_on_dead_vm_ = true;
    abort_job("map " + std::to_string(id) + " failed " + std::to_string(fails) +
              " attempts (last on vm" + std::to_string(failed_vm) + ")");
    return;
  }
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.task_retry, tr->ids.cat_mapred,
                simr().now(), tr->ids.task, id, tr->ids.attempt, fails + 1);
  }
  if (map_running_[idx] == 0) requeue_after(backoff_delay(fails));
}

void Job::map_input_lost(MapTask& task) {
  const int id = task.task_id();
  task.cancel();
  --map_running_[static_cast<std::size_t>(id)];
  give_map_slot(task.vm());
  retire_map_attempt(task);
  failed_on_dead_vm_ = true;
  abort_job("map " + std::to_string(id) +
            " input block unreachable: every replica is on a dead VM");
}

void Job::map_output_lost(int map_id) {
  const auto idx = static_cast<std::size_t>(map_id);
  if (done_ || failed_ || !map_done_flags_[idx]) return;
  // Roll the commit back: the map must produce fresh output on a live VM.
  map_done_flags_[idx] = 0;
  --maps_done_;
  resync_progress();
  for (auto it = completed_outputs_.begin(); it != completed_outputs_.end(); ++it) {
    if (it->map_id == map_id) {
      completed_outputs_.erase(it);
      break;
    }
  }
  ++stats_.map_outputs_lost;
  if (auto* ck = check::auditor()) {
    ck->on_map_output_lost(job_id_, map_id, simr().now().ns());
  }
  if (auto* tr = trace::tracer()) {
    const trace::Str n = tr->intern("map_output_lost");
    tr->pin_name(n);
    tr->instant(tr->track("mapred"), n, tr->ids.cat_mapred, simr().now(),
                tr->ids.task, map_id);
  }
  if (map_running_[idx] == 0 && !map_pending(map_id)) {
    pending_maps_.push_back(map_id);
    try_assign_maps();
  }
}

void Job::reducer_shuffle_finished(ReduceTask& task) {
  const auto idx = static_cast<std::size_t>(task.task_id());
  if (reduce_shuffle_counted_[idx]) return;  // re-attempt of a counted reducer
  reduce_shuffle_counted_[idx] = 1;
  ++reducers_shuffle_done_;
  if (reducers_shuffle_done_ == stats_.reduces_total) {
    stats_.t_shuffle_done = simr().now();
    job_instant(&trace::Tracer::CommonIds::shuffle_done, stats_.t_shuffle_done);
    if (on_shuffle_done) on_shuffle_done(simr().now());
  }
}

void Job::reduce_finished(ReduceTask& task) {
  if (failed_) return;
  ++reduces_done_;
  if (auto* ck = check::auditor()) {
    ck->on_reduce_commit(job_id_, task.task_id(), simr().now().ns());
  }
  const int v = task.vm();
  give_reduce_slot(v);

  // Launch a queued reducer waiting for this slot, if any. The finished
  // reducer may have outlived its VM's welcome (blacklisted mid-run —
  // running attempts are not killed), so the freed slot is only reusable
  // while the VM is still schedulable; otherwise the queue is re-placed
  // wholesale, which routes waiters to other capacity or leaves them for
  // the membership on_schedulable_again kick.
  if (reducers_launched_ && env_.schedulable(v)) {
    for (auto& rt : reduces_) {
      if (rt && !reduce_assigned_[static_cast<std::size_t>(rt->task_id())] &&
          rt->vm() == v && reduce_slot_free(v)) {
        reduce_assigned_[static_cast<std::size_t>(rt->task_id())] = 1;
        take_reduce_slot(v);
        start_reducer(rt.get());
        break;
      }
    }
  } else if (reducers_launched_) {
    pump_queued_reducers();
  }

  if (reduces_done_ == stats_.reduces_total && !done_) {
    done_ = true;
    unregister_blocks();  // the job's files leave the namespace
    stats_.t_done = simr().now();
    job_instant(&trace::Tracer::CommonIds::job_done, stats_.t_done);
    if (auto* ck = check::auditor()) {
      ck->on_job_done(job_id_, maps_done_, reduces_done_, stats_.t_done.ns());
    }
    if (on_done) on_done(simr().now());
  }
}

void Job::reduce_attempt_failed(ReduceTask& task) {
  const int id = task.task_id();
  const auto idx = static_cast<std::size_t>(id);
  give_reduce_slot(task.vm());
  reduce_assigned_[idx] = 0;  // the re-attempt competes for a slot again
  ++stats_.reduce_attempts_failed;
  if (reduces_[idx].get() == &task) {
    retired_reduces_.push_back(std::move(reduces_[idx]));
  }
  if (failed_ || done_) return;

  if (env_.members != nullptr && env_.vm_alive(task.vm())) {
    env_.members->note_task_failure(task.vm());
  }

  const int fails = ++reduce_failures_[idx];
  if (fails >= conf_.max_task_attempts) {
    if (!env_.vm_alive(task.vm())) failed_on_dead_vm_ = true;
    abort_job("reduce " + std::to_string(id) + " failed " + std::to_string(fails) +
              " attempts (last on vm" + std::to_string(task.vm()) + ")");
    return;
  }

  // Place the re-attempt on the same VM unless it is down or blacklisted.
  int v = resolve_reduce_vm(task.vm());
  if (v < 0) v = task.vm();  // nowhere schedulable: park on the old VM
  reduces_[idx] = std::make_unique<ReduceTask>(*this, id, v, fails + 1);
  resync_progress();  // the estimate still counts the failed attempt
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.task_retry, tr->ids.cat_mapred,
                simr().now(), tr->ids.task, 100'000 + id, tr->ids.attempt,
                fails + 1);
  }
  simr().after(backoff_delay(fails), [this, id] {
    const auto i = static_cast<std::size_t>(id);
    if (failed_ || done_) return;
    ReduceTask* rt = reduces_[i].get();
    if (rt == nullptr || reduce_assigned_[i]) return;
    // Placement gone bad during the backoff (declared dead / blacklisted):
    // leave it queued; pump_queued_reducers re-places it when capacity or
    // membership changes.
    if (!env_.schedulable(rt->vm())) return;
    if (!reduce_slot_free(rt->vm())) return;  // the slot-free scan launches it
    reduce_assigned_[i] = 1;
    take_reduce_slot(rt->vm());
    if (auto* ck = check::auditor()) {
      ck->on_reduce_attempt_start(job_id_, rt->task_id(), rt->attempt(),
                                  rt->vm(), simr().now().ns());
    }
    simr().after(conf_.assign_latency, [this, rt] {
      if (failed_ || done_) return;
      for (const auto& mo : completed_outputs_) rt->map_output_ready(mo);
      rt->start();
    });
  });
}

sim::Time Job::backoff_delay(int failures) const {
  sim::Time d = conf_.retry_backoff;
  for (int i = 1; i < failures && d < conf_.retry_backoff_cap; ++i) d = d * 2.0;
  return std::min(d, conf_.retry_backoff_cap);
}

void Job::retire_map_attempt(MapTask& task) {
  const auto idx = static_cast<std::size_t>(task.task_id());
  if (maps_[idx].get() == &task) {
    retired_maps_.push_back(std::move(maps_[idx]));
  } else if (spec_maps_[idx].get() == &task) {
    retired_maps_.push_back(std::move(spec_maps_[idx]));
  }
}

void Job::abort_job(std::string reason) {
  if (done_ || failed_) return;
  failed_ = true;
  failure_ = std::move(reason);
  stats_.failed = true;
  stats_.t_done = simr().now();
  job_instant(&trace::Tracer::CommonIds::job_failed, stats_.t_done);
  // Everything still running goes inert; outstanding completions find the
  // cancelled flag and return. The objects stay owned (graveyard semantics
  // apply to the whole roster now).
  for (auto& m : maps_) {
    if (m) m->cancel();
  }
  for (auto& s : spec_maps_) {
    if (s) s->cancel();
  }
  for (auto& r : reduces_) {
    if (r) r->cancel();
  }
  pending_maps_.clear();
  unregister_blocks();
  // Under an arbiter the cancelled attempts' slots must go back to the
  // shared pool (the legacy single-job path never needed to bother — the
  // run was over). The arbiter owns the ledger, so it returns exactly what
  // this job still holds.
  if (arbiter_ != nullptr) arbiter_->retire_job(job_id_);
  if (on_failed) on_failed(stats_.t_done, failure_);
}

void Job::handle_vm_down(int v) {
  if (done_ || failed_) return;
  // Collect first: fail_attempt() reshuffles the task containers.
  std::vector<MapTask*> dead_maps;
  for (auto& m : maps_) {
    if (m && m->running() && m->vm() == v) dead_maps.push_back(m.get());
  }
  for (auto& s : spec_maps_) {
    if (s && s->running() && s->vm() == v) dead_maps.push_back(s.get());
  }
  std::vector<ReduceTask*> dead_reduces;
  for (auto& r : reduces_) {
    if (r && r->started() && !r->finished() && r->vm() == v) {
      dead_reduces.push_back(r.get());
    }
  }
  for (auto* t : dead_maps) t->fail_attempt();
  for (auto* t : dead_reduces) t->fail_attempt();
}

void Job::handle_vm_up(int) {
  if (done_ || failed_) return;
  try_assign_maps();  // fresh capacity (and unmasked replicas)
  pump_queued_reducers();
}

void Job::handle_vm_declared_dead(int v) {
  if (done_ || failed_) return;
  if (reduces_done_ >= stats_.reduces_total) return;
  // Hadoop 0.19 on a lost TaskTracker: completed maps whose output lived
  // there re-execute, because reducers can no longer fetch it. Only outputs
  // some unfinished reducer still needs — re-running a map nobody will read
  // could outlive the job and trip the drain audit.
  std::vector<int> lost;
  for (const auto& mo : completed_outputs_) {
    if (mo.vm != v) continue;
    bool needed = false;
    for (const auto& rt : reduces_) {
      if (rt && !rt->finished() && !rt->has_fetched(mo.map_id)) {
        needed = true;
        break;
      }
    }
    if (needed) lost.push_back(mo.map_id);
  }
  for (int id : lost) map_output_lost(id);
}

void Job::schedule_speculation_scan() {
  simr().after(conf_.speculative_period, [this] {
    if (done_ || failed_) return;
    speculation_scan();
    schedule_speculation_scan();
  });
}

void Job::speculation_scan() {
  // Hadoop's heuristic, reduced to its core: once enough maps have finished
  // to trust the mean, any running map slower than `slowdown` times the mean
  // gets a second copy on another VM.
  if (maps_done_ >= stats_.maps_total) return;
  if (maps_done_ < conf_.speculative_min_finished) return;
  const auto mean = sim::Time::from_ns(map_dur_sum_.ns() / maps_done_);
  const auto threshold = mean * conf_.speculative_slowdown;
  const auto now = simr().now();
  for (int id = 0; id < stats_.maps_total; ++id) {
    const auto idx = static_cast<std::size_t>(id);
    if (map_done_flags_[idx] || map_running_[idx] != 1) continue;
    MapTask* t = maps_[idx].get();
    if (t == nullptr || !t->running()) continue;  // the live copy is speculative
    if (now - t->t_start() <= threshold) continue;
    launch_speculative_map(id);
  }
}

void Job::launch_speculative_map(int map_id) {
  const auto idx = static_cast<std::size_t>(map_id);
  MapTask* primary = maps_[idx].get();
  int v = -1;
  for (int i = 0; i < env_.n_vms(); ++i) {
    if (i == primary->vm() || !env_.schedulable(i)) continue;
    if (!map_slot_free(i)) continue;
    v = i;
    break;
  }
  if (v < 0) return;  // no spare capacity — try again next scan
  take_map_slot(v);
  ++map_running_[idx];
  if (auto* ck = check::auditor()) {
    ck->on_map_attempt_start(job_id_, map_id, primary->attempt(), v,
                             map_running_[idx],
                             /*speculative=*/true, simr().now().ns());
  }
  if (spec_maps_[idx]) retired_maps_.push_back(std::move(spec_maps_[idx]));
  spec_maps_[idx] = std::make_unique<MapTask>(*this, map_id, blocks_[idx], v,
                                              primary->attempt(), /*speculative=*/true);
  ++stats_.maps_speculated;
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.task_speculate, tr->ids.cat_mapred,
                simr().now(), tr->ids.task, map_id, tr->ids.value, v);
  }
  MapTask* t = spec_maps_[idx].get();
  simr().after(conf_.assign_latency, [t] { t->start(); });
}

bool Job::map_pending(int map_id) const {
  return std::find(pending_maps_.begin(), pending_maps_.end(), map_id) !=
         pending_maps_.end();
}

void Job::note_hdfs_failover(int map_id, int from_vm, int to_vm) {
  ++stats_.hdfs_failovers;
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.hdfs_failover, tr->ids.cat_mapred,
                simr().now(), tr->ids.task, map_id, tr->ids.value, from_vm);
  }
  if (auto* ck = check::auditor()) {
    ck->on_hdfs_failover(job_id_, map_id, from_vm, to_vm, simr().now().ns());
  }
}

void Job::note_fetch_retry(int reduce_id, int map_id) {
  ++stats_.fetch_retries;
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.fetch_retry, tr->ids.cat_mapred,
                simr().now(), tr->ids.task, reduce_id, tr->ids.value, map_id);
  }
}

void Job::note_replica_write_lost(int) {
  ++stats_.replica_writes_lost;
}

double Job::progress() const { return progress_at(reduce_progress_sum()); }

double Job::reduce_progress_sum() const {
  double sum = 0.0;
  for (const auto& rt : reduces_) {
    if (rt) sum += rt->progress();
  }
  return sum;
}

double Job::progress_at(double reduce_sum) const {
  const double map_p =
      stats_.maps_total > 0
          ? static_cast<double>(maps_done_) / stats_.maps_total
          : 1.0;
  const double red_p =
      reduces_.empty() ? 1.0 : reduce_sum / static_cast<double>(reduces_.size());
  return 0.5 * map_p + 0.5 * red_p;
}

void Job::resync_progress() {
  ++progress_sums_;
  updates_since_sum_ = 0;
  reduce_sum_est_ = reduce_progress_sum();
}

void Job::update_progress() {
  resync_progress();
  const double p = progress_at(reduce_sum_est_);
  while (p + 1e-12 >= next_milestone_ && next_milestone_ <= 1.0 + 1e-12) {
    stats_.milestones.push_back({next_milestone_, simr().now()});
    next_milestone_ += 0.05;
  }
}

void Job::reduce_progressed(double delta) {
  reduce_sum_est_ += delta;
  const bool none_left = next_milestone_ > 1.0 + 1e-12;
  if (++updates_since_sum_ < kProgressSumEvery &&
      (none_left ||
       progress_at(reduce_sum_est_) + 1e-12 + progress_slack_ < next_milestone_)) {
    // Skipped: the full sum would not fire a milestone either.
    assert(none_left || progress() + 1e-12 < next_milestone_);
    return;
  }
  update_progress();
}

}  // namespace iosim::mapred
