// Mechanism check for the paper's Fig.-2 story, told through attribution.
//
// The testbed: one physical host, two VMs. VM1 issues small sequential sync
// reads one at a time; VM0 is quiet at first, then floods the path with
// deep async sequential writes (dd-style writeback). Under (noop, noop) the
// Dom0 elevator is FIFO, so once the flood starts every sync read queues
// behind tens of write requests — the elevator-wait lane dominates read
// latency, and the stall detector (armed on the quiet baseline) flags reads
// with writes ahead of them. Under the protective (CFQ, anticipatory) pair
// the same schedule keeps the reads' elevator share far smaller.
#include <gtest/gtest.h>

#include <cstdint>

#include "iosched/pair.hpp"
#include "obs/attribution.hpp"
#include "sim/simulator.hpp"
#include "virt/domu.hpp"
#include "virt/physical_host.hpp"

namespace iosim {
namespace {

using iosched::Dir;
using iosched::SchedulerKind;
using sim::Time;

constexpr int kQuietReads = 50;    // baseline reads before the flood
constexpr int kFloodedReads = 100; // reads completed during the flood
constexpr int kTotalReads = kQuietReads + kFloodedReads;
constexpr int kWriteDepth = 64;    // writer's outstanding bios (writeback backlog)

struct Fig2Rig {
  sim::Simulator simr;
  virt::PhysicalHost host;
  virt::DomU* writer_vm;
  virt::DomU* reader_vm;

  int reads_done = 0;
  disk::Lba read_lba = 0;
  disk::Lba write_lba = 0;
  bool flood_on = false;

  explicit Fig2Rig(SchedulerKind vmm, SchedulerKind guest)
      : host(simr,
             [&] {
               virt::HostConfig hc;
               hc.dom0_blk.scheduler = vmm;
               hc.domu.guest_blk.scheduler = guest;
               return hc;
             }(),
             /*host_id=*/0, /*vm_ctx_base=*/0, /*seed=*/11) {
    writer_vm = &host.add_vm();
    reader_vm = &host.add_vm();
  }

  void submit_read() {
    if (reads_done >= kTotalReads) return;
    const std::int64_t sectors = 8;
    if (read_lba + sectors > reader_vm->image_sectors()) read_lba = 0;
    const disk::Lba lba = read_lba;
    read_lba += sectors;
    reader_vm->submit_io(/*ctx=*/1, lba, sectors, Dir::kRead, /*sync=*/true,
                         [this](Time, iosched::IoStatus) {
                           ++reads_done;
                           if (reads_done == kQuietReads) start_flood();
                           submit_read();
                         });
  }

  void submit_write() {
    // The flood sustains itself until the reader has what it needs.
    if (reads_done >= kTotalReads) return;
    const std::int64_t sectors = 256;  // 128 KB writeback chunks
    if (write_lba + sectors > writer_vm->image_sectors()) write_lba = 0;
    const disk::Lba lba = write_lba;
    write_lba += sectors;
    writer_vm->submit_io(/*ctx=*/2, lba, sectors, Dir::kWrite, /*sync=*/false,
                         [this](Time, iosched::IoStatus) { submit_write(); });
  }

  void start_flood() {
    if (flood_on) return;
    flood_on = true;
    for (int i = 0; i < kWriteDepth; ++i) submit_write();
  }

  void run() {
    submit_read();
    simr.run();
  }
};

struct MechanismResult {
  std::int64_t sync_read_elv_ns = 0;
  std::int64_t sync_read_total_ns = 0;
  std::uint64_t sync_read_count = 0;
  std::uint64_t stalls_total = 0;
  /// Stalled sync reads that arrived behind at least one queued write.
  int stalls_behind_writes = 0;

  double elv_share() const {
    return sync_read_total_ns > 0
               ? static_cast<double>(sync_read_elv_ns) /
                     static_cast<double>(sync_read_total_ns)
               : 0.0;
  }
};

MechanismResult run_pair(SchedulerKind vmm, SchedulerKind guest) {
  // Lowered stall thresholds: the quiet baseline is only kQuietReads deep,
  // so the detector must arm before the flood begins.
  obs::StallConfig stall;
  stall.factor = 1.5;
  stall.floor = sim::Time::from_ms(5);
  stall.min_samples = 16;
  obs::AttributionSession attr(stall);

  Fig2Rig rig(vmm, guest);
  rig.run();
  EXPECT_EQ(rig.reads_done, kTotalReads);

  MechanismResult out;
  obs::Attribution& at = attr.attribution();
  for (std::size_t i = 0; i < at.n_keys(); ++i) {
    const obs::AttrKey& k = at.key_at(i);
    if (k.dir != 0 || k.sync != 1) continue;  // sync reads only
    out.sync_read_elv_ns += at.lane(i, obs::Lane::kElvWait).sum();
    out.sync_read_total_ns += at.lane(i, obs::Lane::kTotal).sum();
    out.sync_read_count += at.lane(i, obs::Lane::kTotal).count();
  }
  out.stalls_total = at.stalls_total();
  for (const obs::StallEvent& ev : at.stalls()) {
    if (ev.key.dir == 0 && ev.key.sync == 1 && ev.writes_ahead > 0) {
      ++out.stalls_behind_writes;
    }
  }
  return out;
}

TEST(ObsMechanism, ElevatorWaitDominatesSyncReadsUnderNoopNoop) {
  const auto nn = run_pair(SchedulerKind::kNoop, SchedulerKind::kNoop);
  const auto ca = run_pair(SchedulerKind::kCfq, SchedulerKind::kAnticipatory);

  ASSERT_EQ(nn.sync_read_count, static_cast<std::uint64_t>(kTotalReads));
  ASSERT_EQ(ca.sync_read_count, static_cast<std::uint64_t>(kTotalReads));
  ASSERT_GT(nn.sync_read_total_ns, 0);
  ASSERT_GT(ca.sync_read_total_ns, 0);

  // The paper's mechanism: with no Dom0 discipline the sync reads spend
  // most of their life queued in the Dom0 elevator behind the write flood;
  // CFQ in the VMM plus anticipatory in the guest shrinks both the share
  // and the absolute elevator wait.
  EXPECT_GT(nn.elv_share(), 0.5)
      << "nn elv share " << nn.elv_share() << " of " << nn.sync_read_total_ns
      << " ns across " << nn.sync_read_count << " reads";
  EXPECT_GT(nn.elv_share(), ca.elv_share() * 1.5)
      << "nn " << nn.elv_share() << " vs ca " << ca.elv_share();
  EXPECT_GT(nn.sync_read_elv_ns, ca.sync_read_elv_ns)
      << "nn elv " << nn.sync_read_elv_ns << " ns vs ca "
      << ca.sync_read_elv_ns << " ns";
}

TEST(ObsMechanism, StallDetectorCatchesReadsBehindWritesUnderNoop) {
  const auto nn = run_pair(SchedulerKind::kNoop, SchedulerKind::kNoop);
  // Armed on the quiet baseline, the detector fires once the flood starts,
  // and the flagged sync reads arrived with writes queued ahead of them in
  // the Dom0 elevator — the "who was ahead" evidence.
  EXPECT_GT(nn.stalls_total, 0u);
  EXPECT_GT(nn.stalls_behind_writes, 0);
}

}  // namespace
}  // namespace iosim
