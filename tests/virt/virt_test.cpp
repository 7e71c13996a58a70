#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "../blk/recording_sink.hpp"
#include "trace/trace.hpp"
#include "virt/io_stream.hpp"
#include "virt/physical_host.hpp"

namespace iosim::virt {
namespace {

using namespace iosim::sim::literals;
using iosched::Dir;
using iosched::SchedulerKind;
using sim::Time;

struct HostRig {
  sim::Simulator simr;
  PhysicalHost host;
  explicit HostRig(int vms = 2, HostConfig cfg = {})
      : host(simr, cfg, 0, /*vm_ctx_base=*/100, /*seed=*/7) {
    for (int i = 0; i < vms; ++i) host.add_vm();
  }
};

TEST(PhysicalHost, BuildsVmsWithDistinctImages) {
  HostRig r(4);
  EXPECT_EQ(r.host.vm_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(r.host.vm(i).image_sectors(), 0);
  }
}

TEST(PhysicalHost, PairReflectsSchedulers) {
  HostRig r(2);
  EXPECT_EQ(r.host.pair(), iosched::kDefaultPair);
  r.host.set_pair({SchedulerKind::kAnticipatory, SchedulerKind::kDeadline});
  r.simr.run();  // let the switch freezes elapse
  EXPECT_EQ(r.host.pair().vmm, SchedulerKind::kAnticipatory);
  EXPECT_EQ(r.host.pair().guest, SchedulerKind::kDeadline);
  EXPECT_EQ(r.host.vm(0).scheduler(), SchedulerKind::kDeadline);
  EXPECT_EQ(r.host.vm(1).scheduler(), SchedulerKind::kDeadline);
}

TEST(DomU, SubmitIoCompletes) {
  HostRig r(1);
  Time done;
  r.host.vm(0).submit_io(42, 1000, 128, Dir::kRead, true,
                         [&](Time t, iosched::IoStatus) { done = t; });
  r.simr.run();
  EXPECT_GT(done, Time::zero());
}

TEST(DomU, IoTraversesRingToPhysicalDisk) {
  HostRig r(1);
  r.host.vm(0).submit_io(42, 0, 512, Dir::kWrite, false, {});
  r.simr.run();
  EXPECT_GT(r.host.disk().model().total_accesses(), 0);
  EXPECT_GT(r.host.dom0_layer().counters().bios_submitted, 0u);
  // 512 sectors at 88 per blkif segment = 6 Dom0 bios.
  EXPECT_EQ(r.host.dom0_layer().counters().bios_submitted, 6u);
}

TEST(DomU, Dom0SeesVmContext) {
  // The stack PhysicalHost builds, by hand, with a recorder under Dom0.
  sim::Simulator simr;
  blk::DiskDevice disk(simr, disk::DiskParams{}, 7);
  std::set<std::uint64_t> ctxs;
  blk::test::RecordingSink rec(
      disk, [&](blk::test::SinkEvent e, const iosched::Request& rq, Time) {
        if (e == blk::test::SinkEvent::kComplete) ctxs.insert(rq.ctx);
      });
  blk::BlockLayer dom0(simr, rec, {});
  const disk::Lba image = disk::DiskParams{}.capacity_sectors / 8;
  DomU vm0(simr, 100, dom0, 0, image, {});
  DomU vm1(simr, 101, dom0, image, image, {});
  vm0.submit_io(1, 0, 88, Dir::kRead, true, {});
  vm1.submit_io(2, 0, 88, Dir::kRead, true, {});
  simr.run();
  // Guest task ids 1/2 were rewritten to the VM identities 100/101.
  EXPECT_EQ(ctxs, (std::set<std::uint64_t>{100, 101}));
}

TEST(DomU, VmsMapToDisjointPhysicalExtents) {
  trace::TraceSession tracing;
  HostRig r(2);
  r.host.vm(0).submit_io(1, 0, 88, Dir::kRead, true, {});
  r.host.vm(1).submit_io(1, 0, 88, Dir::kRead, true, {});
  r.simr.run();
  // Each completed Dom0 read request leaves an rq_read span with its LBA.
  trace::Tracer& tr = tracing.tracer();
  const std::uint32_t dom0 = tr.track(r.host.dom0_layer().name());
  std::vector<disk::Lba> lbas;
  tr.for_each([&](const trace::Event& e) {
    if (e.track == dom0 && e.name == tr.ids.rq_read) lbas.push_back(e.arg[0]);
  });
  ASSERT_EQ(lbas.size(), 2u);
  EXPECT_NE(lbas[0], lbas[1]);  // same vLBA, different images
}

TEST(DomU, AllocZonesAreOrderedAndWrap) {
  HostRig r(1);
  DomU& vm = r.host.vm(0);
  const disk::Lba data = vm.alloc(DiskZone::kData, 1000);
  const disk::Lba scratch = vm.alloc(DiskZone::kScratch, 1000);
  const disk::Lba output = vm.alloc(DiskZone::kOutput, 1000);
  EXPECT_LT(data, scratch);
  EXPECT_LT(scratch, output);
  // Successive allocations advance.
  EXPECT_GT(vm.alloc(DiskZone::kData, 1000), data);
  // Exhausting a zone wraps instead of overflowing.
  for (int i = 0; i < 10000; ++i) {
    const disk::Lba at = vm.alloc(DiskZone::kScratch, vm.image_sectors() / 10);
    EXPECT_GE(at, 0);
    EXPECT_LE(at + vm.image_sectors() / 10, vm.image_sectors());
  }
}

TEST(BlkfrontRing, BoundsOutstandingSegments) {
  HostRig r(1);
  // Submit far more than the ring can hold; everything must still complete.
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    r.host.vm(0).submit_io(7, i * 512, 512, Dir::kWrite, false,
                           [&](Time, iosched::IoStatus) { ++completed; });
  }
  r.simr.run();
  EXPECT_EQ(completed, 100);
}

TEST(IoStream, TransfersWholeExtent) {
  HostRig r(1);
  Time done;
  IoStreamParams p;
  IoStream::run(r.host.vm(0), 9, 0, 10 * 1024 * 1024, Dir::kRead, true, p,
                [&](Time t, iosched::IoStatus) { done = t; });
  r.simr.run();
  EXPECT_GT(done, Time::zero());
  // 10 MB read through the guest layer.
  EXPECT_EQ(r.host.vm(0).layer().counters().bytes_completed[0], 10 * 1024 * 1024);
}

TEST(IoStream, DoneFiresExactlyOnce) {
  HostRig r(1);
  int fires = 0;
  IoStreamParams p;
  p.window = 8;
  IoStream::run(r.host.vm(0), 9, 0, 4 * 1024 * 1024, Dir::kWrite, false, p,
                [&](Time, iosched::IoStatus) { ++fires; });
  r.simr.run();
  EXPECT_EQ(fires, 1);
}

TEST(IoStream, RoundsUpPartialSectors) {
  HostRig r(1);
  Time done;
  IoStream::run(r.host.vm(0), 9, 0, 1000 /* not sector aligned */, Dir::kWrite,
                false, IoStreamParams{}, [&](Time t, iosched::IoStatus) { done = t; });
  r.simr.run();
  EXPECT_GT(done, Time::zero());
}

TEST(IoStream, SequentialReadFasterThanScattered) {
  // The stream's sequential layout should beat the same volume scattered
  // across the image — sanity that the stack preserves locality.
  auto run_pattern = [](bool sequential) {
    HostRig r(1);
    Time done;
    if (sequential) {
      IoStream::run(r.host.vm(0), 9, 0, 32 * 1024 * 1024, Dir::kRead, true,
                    IoStreamParams{}, [&](Time t, iosched::IoStatus) { done = t; });
      r.simr.run();
    } else {
      // 64 scattered 512 KB reads, serialized. Each goes out as two
      // adjacent 256 KB bios (a bio may not exceed the block layer's
      // 512-sector request limit); the next read starts when both are done.
      const std::int64_t half = 512;
      int i = 0;
      int pending = 0;
      std::function<void(Time, iosched::IoStatus)> next;
      auto issue = [&](disk::Lba lba) {
        pending = 2;
        r.host.vm(0).submit_io(9, lba, half, Dir::kRead, true, next);
        r.host.vm(0).submit_io(9, lba + half, half, Dir::kRead, true, next);
      };
      next = [&](Time t, iosched::IoStatus) {
        done = t;
        if (--pending == 0 && ++i < 64) issue((i * 7919) % 100000 * 1024);
      };
      issue(0);
      r.simr.run();
    }
    return done;
  };
  EXPECT_LT(run_pattern(true), run_pattern(false));
}

TEST(PhysicalHost, SwitchPairQuiescesButCompletesInflight) {
  HostRig r(2);
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    r.host.vm(i % 2).submit_io(5, i * 1024, 256, Dir::kWrite, false,
                               [&](Time, iosched::IoStatus) { ++completed; });
  }
  r.simr.after(5_ms, [&] {
    r.host.set_pair({SchedulerKind::kNoop, SchedulerKind::kNoop});
  });
  r.simr.run();
  EXPECT_EQ(completed, 40);
  EXPECT_EQ(r.host.pair().vmm, SchedulerKind::kNoop);
}

}  // namespace
}  // namespace iosim::virt
