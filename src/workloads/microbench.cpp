#include "workloads/microbench.hpp"

#include <cassert>
#include <memory>

namespace iosim::workloads {

namespace {

/// Per-VM sequential writer: walks `files` extents in `io_unit` writes with
/// a bounded window, issuing an fsync barrier (drain + journal commit)
/// every `fsync_every` writes and at each file end.
struct Writer : std::enable_shared_from_this<Writer> {
  sim::Simulator* simr;
  virt::DomU* vm;
  std::uint64_t ctx;
  const SeqWriteParams* p;

  std::int64_t per_file_bytes = 0;
  disk::Lba journal_lba = 0;

  int file_idx = 0;
  disk::Lba file_base = 0;
  std::int64_t file_off = 0;      // bytes written into current file
  std::int64_t since_fsync = 0;   // writes since last barrier
  int outstanding = 0;
  bool barrier_pending = false;

  std::function<void(sim::Time)> on_vm_done;
  std::function<void(std::int64_t)> on_bytes;  // completed bytes deltas

  void start() {
    journal_lba = vm->alloc(virt::DiskZone::kData, 256);  // journal area
    open_next_file();
  }

  void open_next_file() {
    if (file_idx >= p->files) {
      if (on_vm_done) on_vm_done(simr->now());
      return;
    }
    ++file_idx;
    file_base = vm->alloc(virt::DiskZone::kScratch,
                          per_file_bytes / disk::kSectorBytes + 8);
    file_off = 0;
    pump();
  }

  void pump() {
    if (barrier_pending) return;
    auto self = shared_from_this();
    while (outstanding < p->window && file_off < per_file_bytes &&
           !barrier_pending) {
      const std::int64_t n =
          std::min<std::int64_t>(p->io_unit_bytes, per_file_bytes - file_off);
      const disk::Lba at = file_base + file_off / disk::kSectorBytes;
      file_off += n;
      ++outstanding;
      ++since_fsync;
      vm->submit_io(ctx, at, n / disk::kSectorBytes, iosched::Dir::kWrite,
                    /*sync=*/false, [this, self, n](sim::Time, iosched::IoStatus) {
                      --outstanding;
                      if (on_bytes) on_bytes(n);
                      after_completion();
                    });
      if (p->fsync_every > 0 && since_fsync >= p->fsync_every) {
        barrier_pending = true;  // stop issuing; barrier starts at drain
      }
    }
    if (file_off >= per_file_bytes) barrier_pending = true;  // file-end fsync
  }

  void after_completion() {
    if (barrier_pending) {
      if (outstanding == 0) issue_fsync();
      return;
    }
    pump();
  }

  void issue_fsync() {
    since_fsync = 0;
    // ext3 commit: the journal descriptor+metadata blocks, then the commit
    // record — two ordered synchronous writes, each a full round trip to
    // the platter before the writer may proceed.
    auto self = shared_from_this();
    vm->submit_io(ctx, journal_lba, p->journal_bytes / disk::kSectorBytes,
                  iosched::Dir::kWrite, /*sync=*/true,
                  [this, self](sim::Time, iosched::IoStatus) {
                    vm->submit_io(
                        ctx, journal_lba + p->journal_bytes / disk::kSectorBytes,
                        8, iosched::Dir::kWrite, /*sync=*/true,
                        [this, self2 = self](sim::Time, iosched::IoStatus) {
                          barrier_pending = false;
                          if (file_off >= per_file_bytes) {
                            open_next_file();
                          } else {
                            pump();
                          }
                        });
                  });
  }
};

}  // namespace

SeqWriteResult run_seq_writers(sim::Simulator& simr, virt::PhysicalHost& host,
                               const SeqWriteParams& p) {
  assert(host.vm_count() > 0);
  SeqWriteResult res;
  res.per_vm_done.assign(host.vm_count(), sim::Time::zero());

  const std::int64_t total =
      p.bytes_per_vm * static_cast<std::int64_t>(host.vm_count());
  auto bytes_done = std::make_shared<std::int64_t>(0);

  for (std::size_t v = 0; v < host.vm_count(); ++v) {
    auto w = std::make_shared<Writer>();
    w->simr = &simr;
    w->vm = &host.vm(v);
    w->ctx = 100 + v;  // one "process" per VM
    w->p = &p;
    w->per_file_bytes = p.bytes_per_vm / p.files;
    w->on_vm_done = [&res, v](sim::Time t) { res.per_vm_done[v] = t; };
    w->on_bytes = [&p, bytes_done, total](std::int64_t b) {
      *bytes_done += b;
      if (p.on_progress) p.on_progress(*bytes_done, total);
    };
    w->start();
  }

  simr.run();
  res.elapsed = simr.now();
  res.stop = simr.stop_reason();
  return res;
}

SeqWriteResult run_single_host(const virt::HostConfig& host, iosched::SchedulerPair boot,
                               int vms, std::uint64_t seed, SeqWriteParams p,
                               std::optional<iosched::SchedulerPair> switch_to,
                               const sim::SimBudget& budget) {
  sim::Simulator simr;
  simr.set_budget(budget);
  virt::HostConfig hc = host;
  hc.dom0_blk.scheduler = boot.vmm;
  hc.domu.guest_blk.scheduler = boot.guest;
  virt::PhysicalHost ph(simr, hc, /*host_id=*/0, /*vm_ctx_base=*/0, seed);
  for (int v = 0; v < vms; ++v) ph.add_vm();
  if (switch_to) {
    p.on_progress = [&ph, to = *switch_to, switched = false](std::int64_t done,
                                                             std::int64_t total) mutable {
      if (!switched && done * 2 >= total) {
        switched = true;
        ph.set_pair(to);
      }
    };
  }
  return run_seq_writers(simr, ph, p);
}

}  // namespace iosim::workloads
