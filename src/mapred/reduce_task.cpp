#include "mapred/reduce_task.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "mapred/job.hpp"
#include "mapred/merge_op.hpp"
#include "trace/trace.hpp"
#include "virt/io_stream.hpp"

namespace iosim::mapred {

namespace {
sim::Time cpu_cost(double ns_per_byte, std::int64_t bytes) {
  return sim::Time::from_ns(
      static_cast<std::int64_t>(ns_per_byte * static_cast<double>(bytes)));
}
}  // namespace

ReduceTask::ReduceTask(Job& job, int task_id, int vm, int attempt)
    : job_(job), task_id_(task_id), vm_(vm), attempt_(attempt),
      io_ctx_(ctx::reduce_task(task_id, job.ctx_base())),
      map_fetched_(static_cast<std::size_t>(job.stats().maps_total), 0) {}

void ReduceTask::start() {
  if (cancelled_) return;
  started_ = true;
  t_start_ = job_.simr().now();
  pump_fetches();
  maybe_shuffle_done();  // degenerate: zero maps
}

void ReduceTask::map_output_ready(const MapOutput& mo) {
  if (cancelled_) return;
  if (has_fetched(mo.map_id)) return;  // re-advertised re-execution output
  fetch_queue_.push_back(mo);
  if (started_) pump_fetches();
}

void ReduceTask::pump_fetches() {
  const JobConf& c = job_.conf();
  while (active_fetches_ < c.shuffle_parallel && !fetch_queue_.empty()) {
    const MapOutput mo = fetch_queue_.pop_front();
    // A stale advertisement (the original output before a map re-executed)
    // can coexist in the queue with the fresh one; pull each map once.
    if (has_fetched(mo.map_id)) continue;
    ++active_fetches_;
    fetch(mo);
  }
}

void ReduceTask::fetch(const MapOutput& mo) {
  const JobConf& c = job_.conf();
  const int R = c.n_reduces(job_.env().n_vms());
  // This reducer's partition: a contiguous slice of the map output file.
  const std::int64_t part = mo.bytes / R;
  if (part <= 0) {
    // Nothing to move; account the fetch as instantaneous bookkeeping.
    job_.simr().after(sim::Time::zero(), [this, mo] {
      if (cancelled_) return;
      fetch_arrived(mo.map_id, 0);
    });
    return;
  }
  if (!job_.env().vm_alive(mo.vm)) {
    auto* members = job_.env().members;
    if (members != nullptr && members->declared_dead(mo.vm)) {
      // The source TaskTracker is gone for good: retrying against it would
      // burn the fetch budget for nothing. Report the output lost — the job
      // re-executes the map and advertises fresh output, which arrives via
      // map_output_ready like any other commit.
      job_.simr().after(sim::Time::zero(), [this, mo] {
        if (cancelled_) return;
        --active_fetches_;
        job_.map_output_lost(mo.map_id);
        pump_fetches();
      });
      return;
    }
    // Down but not declared dead: a transient refusal, retry with backoff.
    job_.simr().after(sim::Time::zero(), [this, mo] {
      if (cancelled_) return;
      fetch_failed(mo);
    });
    return;
  }
  const disk::Lba off =
      (mo.bytes * task_id_ / R) / disk::kSectorBytes;

  virt::IoStreamParams sp;
  sp.unit_sectors = c.io_unit_bytes / disk::kSectorBytes;
  sp.window = c.read_window;
  sp.cancelled = [this] { return cancelled_; };
  // DataNode-side read of the partition, then the network hop (loopback for
  // a same-host source), then arrival processing. Both callbacks capture
  // (this, part, mo), 40 bytes, and look the hosts up again: inline in
  // their SmallFns, so a fetch allocates nothing.
  const auto on_read = [this, part, mo](sim::Time, iosched::IoStatus st) {
    if (cancelled_) return;
    if (st != iosched::IoStatus::kOk) {
      fetch_failed(mo);
      return;
    }
    const auto on_arrival = [this, part, mo](sim::Time) {
      if (cancelled_) return;
      fetch_arrived(mo.map_id, part);
    };
    static_assert(net::FlowDoneFn::fits_inline<decltype(on_arrival)>());
    job_.env().net->start_flow(job_.vm(mo.vm).host, job_.vm(vm_).host, part,
                               on_arrival);
  };
  static_assert(iosched::CompletionFn::fits_inline<decltype(on_read)>());
  virt::IoStream::run(*job_.vm(mo.vm).vm, ctx::server(mo.vm), mo.vlba + off, part,
                      iosched::Dir::kRead, /*sync=*/true, sp, on_read);
}

void ReduceTask::fetch_arrived(int map_id, std::int64_t bytes) {
  const JobConf& c = job_.conf();
  map_fetched_[static_cast<std::size_t>(map_id)] = 1;
  received_ += bytes;
  mem_used_ += bytes;
  job_.stats_.shuffle_bytes += bytes;
  ++maps_fetched_;
  --active_fetches_;
  if (mem_used_ >= c.shuffle_mem_bytes) flush_memory();
  pump_fetches();
  maybe_shuffle_done();
  report_progress();
}

void ReduceTask::fetch_failed(const MapOutput& mo) {
  --active_fetches_;
  if (fetch_fail_counts_.size() <= static_cast<std::size_t>(mo.map_id)) {
    fetch_fail_counts_.resize(static_cast<std::size_t>(mo.map_id) + 1, 0);
  }
  const int fails = ++fetch_fail_counts_[static_cast<std::size_t>(mo.map_id)];
  job_.note_fetch_retry(task_id_, mo.map_id);
  if (fails > job_.conf().max_fetch_retries) {
    fail_attempt();
    return;
  }
  // Hadoop's copier backs off per failed host; model it per map output.
  job_.simr().after(job_.backoff_delay(fails), [this, mo] {
    if (cancelled_) return;
    fetch_queue_.push_back(mo);
    pump_fetches();
  });
  pump_fetches();  // keep the other copier threads busy meanwhile
}

void ReduceTask::flush_memory() {
  // In-memory merge: the buffered segments are merged and written out as a
  // single on-disk segment (async stream).
  const JobConf& c = job_.conf();
  const VmHandle& me = job_.vm(vm_);
  const std::int64_t bytes = mem_used_;
  mem_used_ = 0;
  ++flush_inflight_;
  me.cpu->run(cpu_cost(c.workload.sort_cpu_ns_per_byte, bytes), [this, bytes, &me, &c] {
    if (cancelled_) return;
    const disk::Lba at =
        me.vm->alloc(virt::DiskZone::kScratch, bytes / disk::kSectorBytes + 1);
    virt::IoStreamParams sp;
    sp.unit_sectors = c.io_unit_bytes / disk::kSectorBytes;
    sp.window = c.write_window;
    sp.cancelled = [this] { return cancelled_; };
    virt::IoStream::run(*me.vm, io_ctx_, at, bytes, iosched::Dir::kWrite,
                        /*sync=*/false, sp, [this, at, bytes](sim::Time, iosched::IoStatus st) {
                          if (cancelled_) return;
                          if (st != iosched::IoStatus::kOk) {
                            fail_attempt();  // lost shuffle segment on disk
                            return;
                          }
                          segments_.push_back({at, bytes});
                          --flush_inflight_;
                          maybe_shuffle_done();
                        });
  });
}

void ReduceTask::maybe_shuffle_done() {
  if (shuffle_complete_) return;
  if (maps_fetched_ < job_.stats().maps_total) return;
  if (active_fetches_ > 0 || flush_inflight_ > 0) return;
  shuffle_complete_ = true;
  t_shuffle_done_ = job_.simr().now();
  if (auto* tr = trace::tracer()) {
    tr->complete(tr->track("tasks/vm" + std::to_string(vm_)), tr->ids.shuffle_span,
                 tr->ids.cat_mapred, t_start_, t_shuffle_done_, tr->ids.task,
                 task_id_, tr->ids.bytes, received_);
  }
  job_.reducer_shuffle_finished(*this);
  start_merge_reduce();
}

void ReduceTask::start_merge_reduce() {
  const JobConf& c = job_.conf();
  const VmHandle& me = job_.vm(vm_);

  merge_total_ = received_;
  std::int64_t disk_in = 0;
  for (const auto& s : segments_) disk_in += s.bytes;
  const std::int64_t mem_in = received_ - disk_in;
  const auto out_total = static_cast<std::int64_t>(
      c.workload.reduce_output_ratio * static_cast<double>(received_));

  // Three concurrent parts: (1) merge+reduce over on-disk segments with the
  // local output write, (2) CPU for the in-memory remainder, (3) the remote
  // replica of the output (flow + remote DataNode write), which Hadoop
  // pipelines with the local write.
  parts_left_ = 3;

  // Part 1: on-disk merge + local output write.
  if (disk_in > 0) {
    MergeOpParams mp;
    for (const auto& s : segments_) mp.inputs.push_back({s.vlba, s.bytes});
    const std::int64_t out_sectors = out_total / disk::kSectorBytes + 1;
    mp.out_vlba = me.vm->alloc(virt::DiskZone::kOutput, out_sectors);
    mp.write_ratio = static_cast<double>(out_total) / static_cast<double>(disk_in);
    mp.cpu_ns_per_byte = c.workload.reduce_cpu_ns_per_byte;
    mp.io_unit_bytes = c.io_unit_bytes;
    mp.window = c.read_window;
    mp.cancelled = [this] { return cancelled_; };
    mp.on_progress = [this](std::int64_t done, std::int64_t) {
      if (cancelled_) return;
      merged_ = done;
      report_progress();
    };
    MergeOp::run(me, io_ctx_, std::move(mp), [this](sim::Time, iosched::IoStatus st) {
      if (cancelled_) return;
      if (st != iosched::IoStatus::kOk) {
        fail_attempt();
        return;
      }
      part_done();
    });
  } else {
    merged_ = 0;
    job_.simr().after(sim::Time::zero(), [this] {
      if (cancelled_) return;
      part_done();
    });
  }

  // Part 2: reduce function over the in-memory remainder.
  if (mem_in > 0) {
    me.cpu->run(cpu_cost(c.workload.reduce_cpu_ns_per_byte, mem_in),
                [this] {
                  if (cancelled_) return;
                  part_done();
                });
  } else {
    job_.simr().after(sim::Time::zero(), [this] {
      if (cancelled_) return;
      part_done();
    });
  }

  // Part 3: output replication (HDFS second replica). A dead or failing
  // replica target degrades to a local-only write (pipeline recovery) —
  // the job completes; durability is what suffers.
  auto& env = job_.env();
  const int replica_vm =
      out_total > 0 && env.n_vms() > 1
          ? env.dfs->pick_remote_replica_vm(
                vm_, [&env](int v) { return env.vm_alive(v); })
          : -1;
  if (replica_vm >= 0) {
    const VmHandle& rv = job_.vm(replica_vm);
    job_.env().net->start_flow(
        me.host, rv.host, out_total, [this, &rv, out_total, &c, replica_vm](sim::Time) {
          if (cancelled_) return;
          const disk::Lba at = rv.vm->alloc(virt::DiskZone::kData,
                                            out_total / disk::kSectorBytes + 1);
          virt::IoStreamParams sp;
          sp.unit_sectors = c.io_unit_bytes / disk::kSectorBytes;
          sp.window = c.write_window;
          sp.cancelled = [this] { return cancelled_; };
          virt::IoStream::run(*rv.vm, ctx::server(replica_vm), at, out_total,
                              iosched::Dir::kWrite, /*sync=*/false, sp,
                              [this](sim::Time, iosched::IoStatus st) {
                                if (cancelled_) return;
                                if (st != iosched::IoStatus::kOk) {
                                  job_.note_replica_write_lost(task_id_);
                                }
                                part_done();
                              });
        });
  } else {
    if (out_total > 0 && env.n_vms() > 1) job_.note_replica_write_lost(task_id_);
    job_.simr().after(sim::Time::zero(), [this] {
      if (cancelled_) return;
      part_done();
    });
  }

  job_.stats_.output_bytes += out_total;
}

void ReduceTask::part_done() {
  assert(parts_left_ > 0);
  if (--parts_left_ == 0) {
    finished_ = true;
    merged_ = merge_total_;
    if (auto* tr = trace::tracer()) {
      tr->complete(tr->track("tasks/vm" + std::to_string(vm_)), tr->ids.reduce_span,
                   tr->ids.cat_mapred, t_shuffle_done_, job_.simr().now(),
                   tr->ids.task, task_id_, tr->ids.bytes, merge_total_);
    }
    reported_progress_ = progress();
    job_.update_progress();  // a structural change: the full sum
    job_.reduce_finished(*this);
  }
}

void ReduceTask::fail_attempt() {
  if (cancelled_) return;
  cancel();
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.task_fail, tr->ids.cat_mapred,
                job_.simr().now(), tr->ids.task, 100'000 + task_id_,
                tr->ids.attempt, attempt_);
  }
  job_.reduce_attempt_failed(*this);
}

void ReduceTask::report_progress() {
  const double p = progress();
  const double delta = p - reported_progress_;
  reported_progress_ = p;
  job_.reduce_progressed(delta);
}

double ReduceTask::progress() const {
  const int total_maps = job_.stats().maps_total;
  const double shuffle_frac =
      total_maps > 0 ? static_cast<double>(maps_fetched_) / total_maps : 1.0;
  double process_frac;
  if (finished_) {
    process_frac = 1.0;
  } else if (merge_total_ > 0) {
    process_frac = static_cast<double>(merged_) / static_cast<double>(merge_total_);
  } else {
    process_frac = 0.0;
  }
  return shuffle_frac / 3.0 + 2.0 * process_frac / 3.0;
}

}  // namespace iosim::mapred
