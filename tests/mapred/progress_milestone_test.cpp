// Job progress milestones pinned exactly. Job keeps a running estimate of
// the reducers' summed progress and runs the full in-order sum only near a
// milestone, on a structural change and every so many updates (DESIGN.md
// §8.8); the milestones must still fire at the same update with the same
// value. Each run below pins the whole JobStats::milestones vector — the
// progress bits and the nanosecond — as the full sum on every update
// produced it:
//   * a fault-free sort at 4 and at 32 hosts;
//   * a short VM outage that fails two reduce attempts, so a fresh
//     ReduceTask replaces each one mid-shuffle;
//   * a long outage that gets the VM declared dead, so committed map output
//     is lost and the count of finished maps falls.
// Like the trace digests, a failure here is a model change, not a baseline
// to refresh.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "cluster/runner.hpp"
#include "fault/fault_plan.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim {
namespace {

struct PinnedMilestone {
  std::uint64_t progress_bits;
  std::int64_t t_ns;
};

constexpr PinnedMilestone kSort4Hosts[] = {
    {0x3fa999999999999aULL, 23605871452},
    {0x3fb999999999999aULL, 29639251443},
    {0x3fc3333333333334ULL, 32635350335},
    {0x3fc999999999999aULL, 34794672765},
    {0x3fd0000000000000ULL, 36667581434},
    {0x3fd3333333333333ULL, 38543088321},
    {0x3fd6666666666666ULL, 39673382695},
    {0x3fd9999999999999ULL, 41105102839},
    {0x3fdcccccccccccccULL, 43903082750},
    {0x3fdfffffffffffffULL, 45424076703},
    {0x3fe1999999999999ULL, 49551772865},
    {0x3fe3333333333333ULL, 51690351531},
    {0x3fe4cccccccccccdULL, 53133103482},
    {0x3fe6666666666667ULL, 57115296308},
    {0x3fe8000000000001ULL, 60324881321},
    {0x3fe999999999999bULL, 64109525360},
    {0x3feb333333333335ULL, 67778211857},
    {0x3feccccccccccccfULL, 70833828375},
    {0x3fee666666666669ULL, 75213744730},
    {0x3ff0000000000001ULL, 78805648492},
};

constexpr PinnedMilestone kSort32Hosts[] = {
    {0x3fa999999999999aULL, 21989013345},
    {0x3fb999999999999aULL, 25403246805},
    {0x3fc3333333333334ULL, 28298609207},
    {0x3fc999999999999aULL, 30960216764},
    {0x3fd0000000000000ULL, 33031076157},
    {0x3fd3333333333333ULL, 34698966902},
    {0x3fd6666666666666ULL, 36188509849},
    {0x3fd9999999999999ULL, 37935241056},
    {0x3fdcccccccccccccULL, 39534627323},
    {0x3fdfffffffffffffULL, 41426249045},
    {0x3fe1999999999999ULL, 42940261351},
    {0x3fe3333333333333ULL, 44761365164},
    {0x3fe4cccccccccccdULL, 47141838057},
    {0x3fe6666666666667ULL, 51910958209},
    {0x3fe8000000000001ULL, 52426877131},
    {0x3fe999999999999bULL, 52971124403},
    {0x3feb333333333335ULL, 53500930180},
    {0x3feccccccccccccfULL, 54161595330},
    {0x3fee666666666669ULL, 54785536146},
    {0x3ff0000000000001ULL, 57029519183},
};

constexpr PinnedMilestone kReduceRetry[] = {
    {0x3fa999999999999aULL, 8788639643},
    {0x3fb999999999999aULL, 15224730254},
    {0x3fc3333333333334ULL, 15567512247},
    {0x3fc999999999999aULL, 17030070475},
    {0x3fd0000000000000ULL, 17053040138},
    {0x3fd3333333333333ULL, 18149479631},
    {0x3fd6666666666666ULL, 18149479631},
    {0x3fd9999999999999ULL, 19708731852},
    {0x3fdcccccccccccccULL, 19708731852},
    {0x3fdfffffffffffffULL, 21630659097},
    {0x3fe1999999999999ULL, 21695546639},
    {0x3fe3333333333333ULL, 21958042361},
    {0x3fe4cccccccccccdULL, 24744658942},
    {0x3fe6666666666667ULL, 26336733507},
    {0x3fe8000000000001ULL, 27695450375},
    {0x3fe999999999999bULL, 31039626259},
    {0x3feb333333333335ULL, 32909638640},
    {0x3feccccccccccccfULL, 34908578518},
    {0x3fee666666666669ULL, 37088101109},
    {0x3ff0000000000001ULL, 39430418376},
};

constexpr PinnedMilestone kMapOutputLoss[] = {
    {0x3fa999999999999aULL, 8788639643},
    {0x3fb999999999999aULL, 15224730254},
    {0x3fc3333333333334ULL, 15567512247},
    {0x3fc999999999999aULL, 17030070475},
    {0x3fd0000000000000ULL, 17053040138},
    {0x3fd3333333333333ULL, 18149479631},
    {0x3fd6666666666666ULL, 18149479631},
    {0x3fd9999999999999ULL, 19708731852},
    {0x3fdcccccccccccccULL, 19708731852},
    {0x3fdfffffffffffffULL, 21630659097},
    {0x3fe1999999999999ULL, 21695546639},
    {0x3fe3333333333333ULL, 21958042361},
    {0x3fe4cccccccccccdULL, 24744658942},
    {0x3fe6666666666667ULL, 26645862265},
    {0x3fe8000000000001ULL, 27478807642},
    {0x3fe999999999999bULL, 31657404821},
    {0x3feb333333333335ULL, 33233995736},
    {0x3feccccccccccccfULL, 34677403168},
    {0x3fee666666666669ULL, 52832606531},
    {0x3ff0000000000001ULL, 54840708950},
};

cluster::RunResult run_sort(int hosts, int vms, std::int64_t mb_per_vm, const char* plan) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = hosts;
  cfg.vms_per_host = vms;
  cfg.seed = 1;
  if (plan != nullptr) {
    std::string err;
    const auto parsed = fault::FaultPlan::parse(plan, &err);
    EXPECT_TRUE(parsed.has_value()) << err;
    cfg.faults = parsed.value_or(fault::FaultPlan{});
  }
  const cluster::RunResult r = cluster::run_job(
      cfg, workloads::make_job(workloads::stream_sort(), mb_per_vm * mapred::kMiB));
  EXPECT_FALSE(r.failed) << r.failure;
  return r;
}

void expect_milestones(const mapred::JobStats& s, std::span<const PinnedMilestone> want) {
  ASSERT_EQ(s.milestones.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.milestones[i].progress), want[i].progress_bits)
        << "milestone " << i;
    EXPECT_EQ(s.milestones[i].t.ns(), want[i].t_ns) << "milestone " << i;
  }
}

TEST(ProgressMilestones, FaultFreeSortAtFourHosts) {
  expect_milestones(run_sort(4, 4, 128, nullptr).stats, kSort4Hosts);
}

TEST(ProgressMilestones, FaultFreeSortAtThirtyTwoHosts) {
  expect_milestones(run_sort(32, 4, 64, nullptr).stats, kSort32Hosts);
}

TEST(ProgressMilestones, ReduceAttemptRetry) {
  const cluster::RunResult r = run_sort(2, 2, 128, "vmdown:vm=1,from=25,until=27");
  EXPECT_GT(r.stats.reduce_attempts_failed, 0);
  EXPECT_EQ(r.stats.map_outputs_lost, 0);
  expect_milestones(r.stats, kReduceRetry);
}

TEST(ProgressMilestones, MapOutputLoss) {
  const cluster::RunResult r = run_sort(2, 2, 128, "vmdown:vm=2,from=25,until=300");
  EXPECT_GT(r.stats.map_outputs_lost, 0);
  expect_milestones(r.stats, kMapOutputLoss);
}

}  // namespace
}  // namespace iosim
