#include "mapred/merge_op.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "trace/trace.hpp"

namespace iosim::mapred {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using sim::Time;

struct Rig {
  Cluster cl;
  Rig() : cl([] {
      ClusterConfig cfg;
      cfg.n_hosts = 1;
      cfg.vms_per_host = 1;
      return cfg;
    }()) {}
  VmHandle& vm() { return cl.env().vms[0]; }
  sim::Simulator& simr() { return cl.simr(); }
};

TEST(MergeOp, EmptyInputCompletesAsync) {
  Rig r;
  bool done = false;
  MergeOp::run(r.vm(), 1, MergeOpParams{}, [&](Time, iosched::IoStatus) { done = true; });
  EXPECT_FALSE(done);  // async contract even for the degenerate case
  r.simr().run();
  EXPECT_TRUE(done);
}

TEST(MergeOp, SingleInputReadsAndWritesAllBytes) {
  Rig r;
  const std::int64_t bytes = 8 * 1024 * 1024;
  const disk::Lba in = r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8);
  MergeOpParams p;
  p.inputs = {{in, bytes}};
  p.out_vlba = r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8);
  bool done = false;
  MergeOp::run(r.vm(), 1, std::move(p), [&](Time, iosched::IoStatus) { done = true; });
  r.simr().run();
  EXPECT_TRUE(done);
  const auto& c = r.vm().vm->layer().counters();
  EXPECT_EQ(c.bytes_completed[0], bytes);  // reads
  EXPECT_GE(c.bytes_completed[1], bytes);  // writes (sector round-up)
}

TEST(MergeOp, MultipleInputsAllConsumed) {
  Rig r;
  MergeOpParams p;
  std::int64_t total = 0;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t b = (i + 1) * 512 * 1024;
    p.inputs.push_back({r.vm().vm->alloc(virt::DiskZone::kScratch, b / 512 + 8), b});
    total += b;
  }
  p.out_vlba = r.vm().vm->alloc(virt::DiskZone::kScratch, total / 512 + 8);
  bool done = false;
  MergeOp::run(r.vm(), 1, std::move(p), [&](Time, iosched::IoStatus) { done = true; });
  r.simr().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.vm().vm->layer().counters().bytes_completed[0], total);
}

TEST(MergeOp, WriteRatioScalesOutput) {
  Rig r;
  const std::int64_t bytes = 4 * 1024 * 1024;
  MergeOpParams p;
  p.inputs = {{r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8), bytes}};
  p.out_vlba = r.vm().vm->alloc(virt::DiskZone::kOutput, bytes / 512 + 8);
  p.write_ratio = 0.25;
  bool done = false;
  MergeOp::run(r.vm(), 1, std::move(p), [&](Time, iosched::IoStatus) { done = true; });
  r.simr().run();
  EXPECT_TRUE(done);
  const auto& c = r.vm().vm->layer().counters();
  EXPECT_NEAR(static_cast<double>(c.bytes_completed[1]),
              0.25 * static_cast<double>(bytes), static_cast<double>(bytes) * 0.02);
}

TEST(MergeOp, OutputAboveOneIoUnitIsSplitIntoUnitBios) {
  // write_ratio > 1: each 256 KB input unit yields 640 KB of output, which
  // must go out as 256 + 256 + 128 KB bios; a single 1280-sector bio would
  // break the block layer's 512-sector request limit.
  trace::TraceSession tracing;
  Rig r;
  const std::int64_t bytes = 2 * 1024 * 1024;
  MergeOpParams p;
  p.inputs = {{r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8), bytes}};
  p.out_vlba = r.vm().vm->alloc(virt::DiskZone::kOutput, 3 * bytes / 512 + 8);
  p.write_ratio = 2.5;
  iosched::IoStatus status = iosched::IoStatus::kError;
  MergeOp::run(r.vm(), 1, std::move(p),
               [&](Time, iosched::IoStatus st) { status = st; });
  r.simr().run();
  EXPECT_EQ(status, iosched::IoStatus::kOk);
  const auto& c = r.vm().vm->layer().counters();
  EXPECT_EQ(c.bytes_completed[1], 5 * bytes / 2);
  // Every guest request leaves an rq_read/rq_write span with its size.
  trace::Tracer& tr = tracing.tracer();
  const std::uint32_t guest = tr.track(r.vm().vm->layer().name());
  std::int64_t largest = 0;
  tr.for_each([&](const trace::Event& e) {
    if (e.track == guest && (e.name == tr.ids.rq_read || e.name == tr.ids.rq_write)) {
      largest = std::max(largest, e.arg[1]);
    }
  });
  EXPECT_GT(largest, 0);
  EXPECT_LE(largest, 512);
  EXPECT_EQ(c.bios_submitted, 8u + 8u * 3u);  // 8 reads, 3 writes per unit
}

TEST(MergeOp, ZeroWriteRatioWritesNothing) {
  Rig r;
  const std::int64_t bytes = 2 * 1024 * 1024;
  MergeOpParams p;
  p.inputs = {{r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8), bytes}};
  p.write_ratio = 0.0;
  bool done = false;
  MergeOp::run(r.vm(), 1, std::move(p), [&](Time, iosched::IoStatus) { done = true; });
  r.simr().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.vm().vm->layer().counters().bytes_completed[1], 0);
}

TEST(MergeOp, CpuCostSlowsCompletion) {
  auto elapsed_with = [](double cpu_ns_per_byte) {
    Rig r;
    const std::int64_t bytes = 8 * 1024 * 1024;
    MergeOpParams p;
    p.inputs = {{r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8), bytes}};
    p.out_vlba = r.vm().vm->alloc(virt::DiskZone::kOutput, bytes / 512 + 8);
    p.cpu_ns_per_byte = cpu_ns_per_byte;
    Time done;
    MergeOp::run(r.vm(), 1, std::move(p), [&](Time t, iosched::IoStatus) { done = t; });
    r.simr().run();
    return done;
  };
  EXPECT_GT(elapsed_with(500.0), elapsed_with(0.0));
}

TEST(MergeOp, ProgressReportsMonotonically) {
  Rig r;
  const std::int64_t bytes = 4 * 1024 * 1024;
  MergeOpParams p;
  p.inputs = {{r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8), bytes}};
  p.out_vlba = r.vm().vm->alloc(virt::DiskZone::kOutput, bytes / 512 + 8);
  std::int64_t last = 0;
  std::int64_t final_total = 0;
  p.on_progress = [&](std::int64_t done, std::int64_t total) {
    EXPECT_GE(done, last);
    EXPECT_LE(done, total);
    last = done;
    final_total = total;
  };
  MergeOp::run(r.vm(), 1, std::move(p), {});
  r.simr().run();
  EXPECT_EQ(last, final_total);
  EXPECT_EQ(final_total, bytes);
}

TEST(MergeOp, SkipsEmptyInputs) {
  Rig r;
  const std::int64_t bytes = 1024 * 1024;
  MergeOpParams p;
  p.inputs = {{0, 0},
              {r.vm().vm->alloc(virt::DiskZone::kScratch, bytes / 512 + 8), bytes},
              {0, 0}};
  p.out_vlba = r.vm().vm->alloc(virt::DiskZone::kOutput, bytes / 512 + 8);
  bool done = false;
  MergeOp::run(r.vm(), 1, std::move(p), [&](Time, iosched::IoStatus) { done = true; });
  r.simr().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.vm().vm->layer().counters().bytes_completed[0], bytes);
}

}  // namespace
}  // namespace iosim::mapred
