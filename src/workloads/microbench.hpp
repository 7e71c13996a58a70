// iosim: sysbench- and dd-style microbenchmark drivers.
//
// These reproduce the request generators behind the paper's Fig. 1
// (sysbench fileio seqwr: per-VM process sequentially writing 1 GB across
// 16 files) and Section IV-B's switch-cost methodology (dd: 600 MB of
// zeroes written in parallel on every VM of one physical machine).
// run_single_host is the one rig both run on (the spec engine's
// mode=sysbench and mode=switchcost points).
//
// sysbench seqwr's defaults matter for the shape: 16 KB write requests and
// an fsync every 100 requests. Each fsync is a synchronous barrier — the
// writer stalls until its outstanding data and a journal commit reach the
// platter. Under consolidation those barriers wait behind the *other* VMs'
// queued data, which is what makes the slowdown superlinear in the number
// of VMs (the paper's 3.5x / 8.5x at 2 / 3 VMs).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "virt/physical_host.hpp"

namespace iosim::workloads {

struct SeqWriteParams {
  /// Bytes each VM writes in total.
  std::int64_t bytes_per_vm = 1024LL * 1024 * 1024;
  /// Number of files the stream is split across (sysbench --file-num=16).
  /// Each file is a separate extent, so file boundaries cause a seek.
  int files = 16;
  /// Write request size (sysbench --file-block-size default 16 KB).
  std::int64_t io_unit_bytes = 16 * 1024;
  /// Outstanding write bios per VM. sysbench+ext3 semantics: writes land
  /// in the page cache and the whole inter-fsync batch flushes at the
  /// barrier, so the effective window equals the fsync interval.
  int window = 100;
  /// fsync every N writes (sysbench --file-fsync-freq default 100);
  /// 0 disables periodic fsync (dd-style: one barrier per file).
  int fsync_every = 100;
  /// Journal commit write issued by each fsync (ext3 commit record).
  std::int64_t journal_bytes = 64 * 1024;
  /// Observer: cluster-wide (bytes_done, bytes_total) after every barrier
  /// or file completion. run_single_host uses it to trigger a mid-run
  /// scheduler switch.
  std::function<void(std::int64_t, std::int64_t)> on_progress;
};

struct SeqWriteResult {
  sim::Time elapsed;                   // all VMs finished
  std::vector<sim::Time> per_vm_done;  // per-VM completion times
  /// kDrained unless a budget installed on the simulator stopped the run
  /// first (then `elapsed` is where it stopped).
  sim::StopReason stop = sim::StopReason::kDrained;
};

/// Run one sequential writer per VM of `host`; returns once the simulator
/// has drained (all writes and barriers complete). The caller provides the
/// simulator driving the host.
SeqWriteResult run_seq_writers(sim::Simulator& simr, virt::PhysicalHost& host,
                               const SeqWriteParams& p);

/// One run of `p` on a fresh single-host rig: a PhysicalHost built from
/// `host` with `boot` installed, `vms` VMs and the raw `seed`, one writer
/// per VM. With `switch_to`, the whole host switches to that pair once half
/// of the data is written (Section IV-B's switch-cost methodology). The
/// simulation runs under `budget`.
SeqWriteResult run_single_host(const virt::HostConfig& host, iosched::SchedulerPair boot,
                               int vms, std::uint64_t seed, SeqWriteParams p,
                               std::optional<iosched::SchedulerPair> switch_to = std::nullopt,
                               const sim::SimBudget& budget = {});

/// dd-style parameters: one big file, no periodic fsync, large requests.
inline SeqWriteParams dd_params(std::int64_t bytes_per_vm) {
  SeqWriteParams p;
  p.bytes_per_vm = bytes_per_vm;
  p.files = 8;  // progress checkpoints for the mid-run switch
  p.io_unit_bytes = 256 * 1024;
  // dd dumps into the page cache; writeback floods the elevator with a deep
  // backlog (nr_requests-bound), which is what a mid-run elevator switch has
  // to drain.
  p.window = 64;
  p.fsync_every = 0;
  return p;
}

}  // namespace iosim::workloads
