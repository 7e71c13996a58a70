#include "mapred/map_task.hpp"

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

MapTask::MapTask(Job& job, int task_id, const hdfs::DfsBlock& block, int vm,
                 int attempt, bool speculative)
    : job_(job), task_id_(task_id), block_(block), vm_(vm), attempt_(attempt),
      speculative_(speculative), io_ctx_(ctx::map_task(task_id, job.ctx_base())) {}

void MapTask::start() {
  if (cancelled_) return;
  running_ = true;
  t_start_ = job_.simr().now();
  auto& env = job_.env();
  const auto* r = env.dfs->pick_replica_if(
      block_, vm_, [&env](int v) { return env.vm_alive(v); });
  if (r == nullptr) {
    // Every replica of the input block is on a dead VM: the data is gone for
    // as long as the outage lasts. Surface it as a lost-block abort (the
    // DFSClient's BlockMissingException) rather than burning attempts.
    job_.map_input_lost(*this);
    return;
  }
  src_ = *r;
  local_ = (src_.vm == vm_);
  read_next_chunk();
}

void MapTask::read_next_chunk() {
  const JobConf& c = job_.conf();
  const std::int64_t chunk =
      std::min<std::int64_t>(c.map_chunk_bytes, block_.bytes - read_off_);
  assert(chunk > 0);
  const disk::Lba at = src_.vlba + read_off_ / disk::kSectorBytes;
  read_off_ += chunk;

  virt::IoStreamParams sp;
  sp.unit_sectors = c.io_unit_bytes / disk::kSectorBytes;
  sp.window = c.read_window;  // readahead depth
  sp.cancelled = [this] { return cancelled_; };

  const VmHandle& me = job_.vm(vm_);
  if (local_) {
    virt::IoStream::run(*me.vm, io_ctx_, at, chunk, iosched::Dir::kRead,
                        /*sync=*/true, sp,
                        [this, chunk](sim::Time, iosched::IoStatus st) {
                          if (cancelled_) return;
                          if (st != iosched::IoStatus::kOk) {
                            read_failed(chunk);
                            return;
                          }
                          chunk_read(chunk);
                        });
  } else {
    // Remote HDFS read: the source DataNode reads the chunk, then it crosses
    // the network, then the mapper consumes it.
    const VmHandle& srcvm = job_.vm(src_.vm);
    virt::IoStream::run(
        *srcvm.vm, ctx::server(src_.vm), at, chunk, iosched::Dir::kRead,
        /*sync=*/true, sp, [this, chunk, &srcvm, &me](sim::Time, iosched::IoStatus st) {
          if (cancelled_) return;
          if (st != iosched::IoStatus::kOk) {
            read_failed(chunk);
            return;
          }
          job_.env().net->start_flow(srcvm.host, me.host, chunk,
                                     [this, chunk](sim::Time) {
                                       if (cancelled_) return;
                                       chunk_read(chunk);
                                     });
        });
  }
}

void MapTask::read_failed(std::int64_t chunk) {
  // Put the chunk back, then retry it against a different surviving replica
  // (DFSClient marks the bad DataNode dead for this block and re-fetches).
  read_off_ -= chunk;
  if (++read_failovers_ > job_.conf().max_read_failovers) {
    fail_attempt();  // both replicas keep erroring: stop ping-ponging
    return;
  }
  const int bad_vm = src_.vm;
  auto& env = job_.env();
  const auto* r = env.dfs->pick_replica_if(
      block_, vm_, [&env, bad_vm](int v) { return v != bad_vm && env.vm_alive(v); });
  if (r == nullptr) {
    fail_attempt();  // no other source: burn the attempt
    return;
  }
  job_.note_hdfs_failover(task_id_, src_.vm, r->vm);
  src_ = *r;
  local_ = (src_.vm == vm_);
  read_next_chunk();
}

void MapTask::chunk_read(std::int64_t bytes) {
  const WorkloadModel& w = job_.conf().workload;
  const auto computed = [this, bytes] {
    if (cancelled_) return;
    chunk_computed(bytes);
  };
  static_assert(sim::EventFn::fits_inline<decltype(computed)>());
  job_.vm(vm_).cpu->run(cpu_cost(w.map_cpu_ns_per_byte, bytes), computed);
}

void MapTask::chunk_computed(std::int64_t in_bytes) {
  const JobConf& c = job_.conf();
  buffer_ += static_cast<std::int64_t>(c.workload.map_output_ratio *
                                       static_cast<double>(in_bytes));
  const auto threshold = static_cast<std::int64_t>(
      c.spill_threshold * static_cast<double>(c.sort_buffer_bytes) /
      c.sort_record_overhead);
  if (buffer_ >= threshold) {
    queue_spill(buffer_);
    buffer_ = 0;
  }
  if (read_off_ < block_.bytes) {
    read_next_chunk();
  } else {
    end_of_input();
  }
}

void MapTask::queue_spill(std::int64_t bytes) {
  if (bytes <= 0) return;
  spill_queue_ += bytes;
  if (!spill_running_) start_spill();
}

void MapTask::start_spill() {
  assert(spill_queue_ > 0);
  const std::int64_t bytes = spill_queue_;
  spill_queue_ = 0;
  spill_running_ = true;

  const JobConf& c = job_.conf();
  const VmHandle& me = job_.vm(vm_);
  // Sort the buffer on the vCPU, then stream the spill file out (async
  // writeback; the mapper thread does not wait on it).
  me.cpu->run(cpu_cost(c.workload.sort_cpu_ns_per_byte, bytes), [this, bytes, &me, &c] {
    if (cancelled_) return;
    const disk::Lba at =
        me.vm->alloc(virt::DiskZone::kScratch, bytes / disk::kSectorBytes + 1);
    virt::IoStreamParams sp;
    sp.unit_sectors = c.io_unit_bytes / disk::kSectorBytes;
    sp.window = c.write_window;  // writeback is more aggressive than readahead
    sp.cancelled = [this] { return cancelled_; };
    job_.stats_.map_side_spill_bytes += bytes;
    virt::IoStream::run(*me.vm, io_ctx_, at, bytes, iosched::Dir::kWrite,
                        /*sync=*/false, sp, [this, at, bytes](sim::Time, iosched::IoStatus st) {
                          if (cancelled_) return;
                          if (st != iosched::IoStatus::kOk) {
                            fail_attempt();  // lost spill file: local disk error
                            return;
                          }
                          spills_.push_back({at, bytes});
                          spill_running_ = false;
                          if (spill_queue_ > 0) {
                            start_spill();
                          } else {
                            maybe_finish();
                          }
                        });
  });
}

void MapTask::end_of_input() {
  input_done_ = true;
  queue_spill(buffer_);
  buffer_ = 0;
  maybe_finish();
}

void MapTask::maybe_finish() {
  if (!input_done_ || spill_running_ || spill_queue_ > 0) return;

  if (spills_.empty()) {
    finish(0, 0);  // map produced no output (fully combined away)
    return;
  }
  if (spills_.size() == 1) {
    finish(spills_[0].vlba, spills_[0].bytes);  // promote the only spill
    return;
  }

  // Multi-spill merge into the final map output file.
  const JobConf& c = job_.conf();
  const VmHandle& me = job_.vm(vm_);
  std::int64_t total = 0;
  MergeOpParams mp;
  for (const auto& s : spills_) {
    mp.inputs.push_back({s.vlba, s.bytes});
    total += s.bytes;
  }
  mp.out_vlba = me.vm->alloc(virt::DiskZone::kScratch, total / disk::kSectorBytes + 1);
  mp.write_ratio = 1.0;
  mp.cpu_ns_per_byte = c.workload.sort_cpu_ns_per_byte;
  mp.io_unit_bytes = c.io_unit_bytes;
  mp.window = c.read_window;
  mp.cancelled = [this] { return cancelled_; };
  const disk::Lba out = mp.out_vlba;
  MergeOp::run(me, io_ctx_, std::move(mp),
               [this, out, total](sim::Time, iosched::IoStatus st) {
                 if (cancelled_) return;
                 if (st != iosched::IoStatus::kOk) {
                   fail_attempt();
                   return;
                 }
                 finish(out, total);
               });
}

void MapTask::finish(disk::Lba out_vlba, std::int64_t out_bytes) {
  if (cancelled_) return;
  running_ = false;
  if (auto* tr = trace::tracer()) {
    tr->complete(tr->track("tasks/vm" + std::to_string(vm_)), tr->ids.map_span,
                 tr->ids.cat_mapred, t_start_, job_.simr().now(), tr->ids.task,
                 task_id_, tr->ids.bytes, out_bytes);
  }
  MapOutput mo;
  mo.map_id = task_id_;
  mo.vm = vm_;
  mo.vlba = out_vlba;
  mo.bytes = out_bytes;
  job_.map_finished(*this, mo);
}

void MapTask::fail_attempt() {
  if (cancelled_) return;
  cancel();
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("mapred"), tr->ids.task_fail, tr->ids.cat_mapred,
                job_.simr().now(), tr->ids.task, task_id_, tr->ids.attempt,
                attempt_);
  }
  job_.map_attempt_failed(*this);
}

}  // namespace iosim::mapred
