#include "core/fine_grained.hpp"

#include <gtest/gtest.h>

#include "core/switch_predictor.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {
namespace {

using cluster::ClusterConfig;
using iosched::SchedulerKind;
using iosched::SchedulerPair;

ClusterConfig tiny() {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  return cfg;
}

TEST(SwitchPredictor, AnalyticSeedUniform) {
  SwitchPredictor p(3.0);
  const SchedulerPair a = iosched::kDefaultPair;
  const SchedulerPair b{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  EXPECT_DOUBLE_EQ(p.predict_seconds(a, b), 3.0);
  EXPECT_DOUBLE_EQ(p.predict_seconds(b, a), 3.0);
}

TEST(SwitchPredictor, WorthwhileComparesBenefitToCost) {
  SwitchPredictor p(5.0);
  const SchedulerPair a = iosched::kDefaultPair;
  const SchedulerPair b{SchedulerKind::kDeadline, SchedulerKind::kDeadline};
  // 10% gain over 100s = 10s saving > 5s cost.
  EXPECT_TRUE(p.worthwhile(a, b, 0.10, sim::Time::from_sec(100)));
  // 1% gain over 100s = 1s saving < 5s cost.
  EXPECT_FALSE(p.worthwhile(a, b, 0.01, sim::Time::from_sec(100)));
}

TEST(FineGrained, JobCompletesUnderController) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = FineGrainedController::attach(cl, job, FineGrainedPolicy{},
                                           SwitchPredictor{1.0});
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done());
  EXPECT_GT(ctl->samples(), 0);
}

TEST(FineGrained, SamplingStopsAfterJob) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  FineGrainedPolicy pol;
  pol.sample_period = sim::Time::from_sec(1);
  auto ctl = FineGrainedController::attach(cl, job, pol, SwitchPredictor{1.0});
  job.run();
  cl.simr().run();  // must terminate: the controller stops rescheduling
  EXPECT_TRUE(job.done());
  // The simulator drained, i.e. no immortal sampling loop.
  EXPECT_FALSE(cl.simr().step());
}

TEST(FineGrained, HighPredictedCostBlocksSwitching) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = FineGrainedController::attach(cl, job, FineGrainedPolicy{},
                                           SwitchPredictor{1e9});  // prohibitive
  job.run();
  cl.simr().run();
  EXPECT_EQ(ctl->total_switches(), 0);
  EXPECT_EQ(cl.host(0).dom0_layer().counters().scheduler_switches, 0u);
}

TEST(FineGrained, CheapSwitchingAdaptsToRegimes) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  FineGrainedPolicy pol;
  pol.sample_period = sim::Time::from_sec(5);
  pol.min_switch_gap = sim::Time::from_sec(5);
  auto ctl = FineGrainedController::attach(cl, job, pol, SwitchPredictor{0.0});
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done());
  // Sort flips from read-dominated (maps) to write-heavy (reduce): at least
  // one per-host switch should have happened somewhere.
  EXPECT_GT(ctl->total_switches(), 0);
}

TEST(FineGrained, MinGapRateLimitsSwitching) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  FineGrainedPolicy pol;
  pol.sample_period = sim::Time::from_sec(1);
  pol.min_switch_gap = sim::Time::from_sec(100000);  // once per host, ever
  auto ctl = FineGrainedController::attach(cl, job, pol, SwitchPredictor{0.0});
  job.run();
  cl.simr().run();
  EXPECT_LE(ctl->total_switches(), static_cast<int>(cl.n_hosts()));
}

}  // namespace
}  // namespace iosim::core
