// iosim: a Hadoop reduce task.
//
// Three phases, per the paper's decomposition:
//   shuffle — pull one partition from every finished map (up to
//             `shuffle_parallel` concurrent fetches; source-side DataNode
//             disk reads + a network flow; fetched bytes accumulate in a
//             memory budget and are flushed to disk as merged segments),
//   merge/sort — k-way merge of the on-disk segments,
//   reduce — user function on the merged stream, output written to HDFS
//            (local replica + pipelined remote replica).
//
// Failure semantics: one ReduceTask object is one *attempt*. A failed
// shuffle fetch is re-queued with exponential backoff (Hadoop's fetch
// retry), up to `max_fetch_retries` per map output, after which the attempt
// fails. Disk errors during flush/merge fail the attempt. A failed remote
// output-replica write is dropped, not fatal (HDFS pipeline recovery keeps
// the local copy). Cancelled attempts go inert via the `cancelled_` flag;
// the job's graveyard keeps the object alive for in-flight captures.
#pragma once

#include <cstdint>
#include <vector>

#include "mapred/map_task.hpp"
#include "sim/ring_fifo.hpp"

namespace iosim::mapred {

class ReduceTask {
 public:
  ReduceTask(Job& job, int task_id, int vm, int attempt = 1);

  void start();
  /// Called by the job whenever a map completes (or, at start, for every
  /// already-completed map).
  void map_output_ready(const MapOutput& mo);

  int task_id() const { return task_id_; }
  int vm() const { return vm_; }
  int attempt() const { return attempt_; }
  /// Whether this attempt already pulled map `map_id`'s partition. The job
  /// consults this when a re-executed map re-advertises output: attempts
  /// that fetched the original copy must not count the fresh one twice.
  bool has_fetched(int map_id) const {
    return static_cast<std::size_t>(map_id) < map_fetched_.size() &&
           map_fetched_[static_cast<std::size_t>(map_id)] != 0;
  }
  bool started() const { return started_; }
  bool finished() const { return finished_; }

  /// Go inert: all pending completions become no-ops. Idempotent.
  void cancel() { cancelled_ = true; }

  /// Fail this attempt (traces task_fail and reports to the job). Used
  /// internally on I/O errors and by the job when the hosting VM dies.
  void fail_attempt();

  /// Hadoop-style phase progress in [0,1]: shuffle third + merge/reduce
  /// two-thirds (by bytes).
  double progress() const;

 private:
  struct Segment {
    disk::Lba vlba;
    std::int64_t bytes;
  };

  void pump_fetches();
  void fetch(const MapOutput& mo);
  void fetch_arrived(int map_id, std::int64_t bytes);
  void fetch_failed(const MapOutput& mo);
  void flush_memory();
  void maybe_shuffle_done();
  void start_merge_reduce();
  void part_done();
  /// Hand the job the change in progress() since the last report.
  void report_progress();

  Job& job_;
  int task_id_;
  int vm_;
  int attempt_;
  std::uint64_t io_ctx_;
  sim::Time t_start_ = sim::Time::zero();         // task start
  sim::Time t_shuffle_done_ = sim::Time::zero();  // shuffle phase end

  bool started_ = false;
  bool cancelled_ = false;
  sim::RingFifo<MapOutput> fetch_queue_;
  std::vector<int> fetch_fail_counts_;  // per map id, lazily sized
  std::vector<char> map_fetched_;       // per map id, sized at construction
  int active_fetches_ = 0;
  int maps_fetched_ = 0;
  bool shuffle_complete_ = false;

  std::int64_t mem_used_ = 0;
  std::int64_t received_ = 0;       // total shuffle bytes received
  std::vector<Segment> segments_;   // on-disk merged segments
  int flush_inflight_ = 0;

  std::int64_t merged_ = 0;         // merge/reduce progress in bytes
  std::int64_t merge_total_ = 0;
  int parts_left_ = 0;              // local merge + mem CPU + replication
  bool finished_ = false;
  double reported_progress_ = 0.0;  // progress() at the last report
};

}  // namespace iosim::mapred
