#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "workloads/benchmarks.hpp"
#include "workloads/microbench.hpp"

namespace iosim::workloads {
namespace {

using iosched::SchedulerKind;
using sim::Time;

TEST(Benchmarks, WorkloadClassesMatchThePaper) {
  const auto wc = wordcount();
  const auto nc = wordcount_no_combiner();
  const auto srt = stream_sort();
  // "Light": tiny map output with combiner.
  EXPECT_LT(wc.map_output_ratio, 0.2);
  EXPECT_TRUE(wc.combiner);
  // "Moderate": map output ~1.7x input, small job output.
  EXPECT_NEAR(nc.map_output_ratio, 1.7, 0.01);
  EXPECT_LT(nc.reduce_output_ratio, 0.1);
  EXPECT_FALSE(nc.combiner);
  // "Heavy": identity in, identity out.
  EXPECT_DOUBLE_EQ(srt.map_output_ratio, 1.0);
  EXPECT_DOUBLE_EQ(srt.reduce_output_ratio, 1.0);
}

TEST(Benchmarks, WordcountIsCpuHeavy) {
  EXPECT_GT(wordcount().map_cpu_ns_per_byte, 5 * stream_sort().map_cpu_ns_per_byte);
}

TEST(Benchmarks, MakeJobAppliesInputSize) {
  const auto jc = make_job(stream_sort(), 256 * mapred::kMiB);
  EXPECT_EQ(jc.input_bytes_per_vm, 256 * mapred::kMiB);
  EXPECT_EQ(jc.workload.name, "sort");
  EXPECT_EQ(jc.n_maps(4), 16);  // 4 blocks per VM
}

struct SysbenchRig {
  sim::Simulator simr;
  virt::PhysicalHost host;
  explicit SysbenchRig(int vms, SchedulerKind vmm = SchedulerKind::kCfq,
                       SchedulerKind guest = SchedulerKind::kCfq)
      : host(simr,
             [&] {
               virt::HostConfig hc;
               hc.dom0_blk.scheduler = vmm;
               hc.domu.guest_blk.scheduler = guest;
               return hc;
             }(),
             0, 0, 17) {
    for (int i = 0; i < vms; ++i) host.add_vm();
  }
};

TEST(Sysbench, SingleVmCompletes) {
  SysbenchRig r(1);
  SeqWriteParams p;
  p.bytes_per_vm = 64 * 1024 * 1024;
  const auto res = run_seq_writers(r.simr, r.host, p);
  EXPECT_GT(res.elapsed, Time::zero());
  ASSERT_EQ(res.per_vm_done.size(), 1u);
  EXPECT_EQ(res.per_vm_done[0], res.elapsed);
}

TEST(Sysbench, WritesTheConfiguredVolume) {
  SysbenchRig r(2);
  SeqWriteParams p;
  p.bytes_per_vm = 32 * 1024 * 1024;
  (void)run_seq_writers(r.simr, r.host, p);
  // All data plus journal commits reached the disk.
  std::int64_t written = 0;
  written += r.host.dom0_layer().counters().bytes_completed[1];
  EXPECT_GE(written, 2 * p.bytes_per_vm);
}

TEST(Sysbench, ProgressCallbackCoversAllBytes) {
  SysbenchRig r(2);
  SeqWriteParams p;
  p.bytes_per_vm = 16 * 1024 * 1024;
  std::int64_t last = 0, total = 0;
  p.on_progress = [&](std::int64_t done, std::int64_t tot) {
    EXPECT_GE(done, last);
    last = done;
    total = tot;
  };
  (void)run_seq_writers(r.simr, r.host, p);
  EXPECT_EQ(total, 2 * p.bytes_per_vm);
  EXPECT_EQ(last, total);
}

TEST(Sysbench, MoreVmsSlowerSuperlinearly) {
  auto elapsed = [](int vms) {
    SysbenchRig r(vms);
    SeqWriteParams p;
    p.bytes_per_vm = 128 * 1024 * 1024;
    return run_seq_writers(r.simr, r.host, p).elapsed.sec();
  };
  const double e1 = elapsed(1);
  const double e2 = elapsed(2);
  // Superlinear: worse than the 2x a fair bandwidth split alone would give.
  EXPECT_GT(e2, 2.0 * e1);
}

TEST(Sysbench, FsyncBarriersCostTime) {
  auto elapsed = [](int fsync_every) {
    SysbenchRig r(2);
    SeqWriteParams p;
    p.bytes_per_vm = 64 * 1024 * 1024;
    p.fsync_every = fsync_every;
    p.window = fsync_every > 0 ? fsync_every : p.window;
    return run_seq_writers(r.simr, r.host, p).elapsed.sec();
  };
  EXPECT_GT(elapsed(50), elapsed(0));
}

TEST(Sysbench, DeterministicGivenSeed) {
  auto run_once = [] {
    SysbenchRig r(2);
    SeqWriteParams p;
    p.bytes_per_vm = 16 * 1024 * 1024;
    return run_seq_writers(r.simr, r.host, p).elapsed;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DdParams, ShapeMatchesDd) {
  const auto p = dd_params(600LL * 1024 * 1024);
  EXPECT_EQ(p.bytes_per_vm, 600LL * 1024 * 1024);
  EXPECT_EQ(p.fsync_every, 0);          // no periodic fsync
  EXPECT_EQ(p.io_unit_bytes, 256 * 1024);
  EXPECT_GT(p.files, 0);
}

class SysbenchPairSweep
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, SchedulerKind>> {};

TEST_P(SysbenchPairSweep, CompletesUnderEveryPair) {
  SysbenchRig r(2, std::get<0>(GetParam()), std::get<1>(GetParam()));
  SeqWriteParams p;
  p.bytes_per_vm = 16 * 1024 * 1024;
  const auto res = run_seq_writers(r.simr, r.host, p);
  EXPECT_GT(res.elapsed, Time::zero());
  for (const auto& t : res.per_vm_done) EXPECT_GT(t, Time::zero());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SysbenchPairSweep,
    ::testing::Combine(::testing::Values(SchedulerKind::kNoop, SchedulerKind::kDeadline,
                                         SchedulerKind::kAnticipatory, SchedulerKind::kCfq),
                       ::testing::Values(SchedulerKind::kNoop, SchedulerKind::kDeadline,
                                         SchedulerKind::kAnticipatory, SchedulerKind::kCfq)),
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_" +
             to_string(std::get<1>(param_info.param));
    });

// The switch-cost methodology on the single-host rig: dd on 2 VMs, 64 MB
// each, a switch at half the data.
double dd_seconds(iosched::SchedulerPair from,
                  std::optional<iosched::SchedulerPair> to = std::nullopt) {
  return run_single_host({}, from, 2, 42, dd_params(64LL * 1024 * 1024), to).elapsed.sec();
}

TEST(SwitchCost, SoloRunCompletes) {
  EXPECT_GT(dd_seconds(iosched::kDefaultPair), 0.0);
}

TEST(SwitchCost, SoloRunsDeterministic) {
  EXPECT_DOUBLE_EQ(dd_seconds(iosched::kDefaultPair), dd_seconds(iosched::kDefaultPair));
}

TEST(SwitchCost, SwitchedRunCompletesAndIsSlowwerThanBestHalf) {
  const iosched::SchedulerPair a = iosched::kDefaultPair;
  const iosched::SchedulerPair b{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  const double both = dd_seconds(a, b);
  EXPECT_GT(both, 0.0);
  // The switched run can never beat running the faster configuration alone
  // by more than noise (the quiesce alone costs time).
  EXPECT_GT(both, std::min(dd_seconds(a), dd_seconds(b)) * 0.9);
}

TEST(SwitchCost, SamePairSwitchStillCostsTime) {
  // The paper: "re-assigning the same disk I/O scheduler pair is costly".
  const iosched::SchedulerPair p = iosched::kDefaultPair;
  EXPECT_GT(dd_seconds(p, p), dd_seconds(p));
}

}  // namespace
}  // namespace iosim::workloads
