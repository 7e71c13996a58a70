#include "core/fine_grained.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cluster/runner.hpp"
#include "fault/fault_plan.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {
namespace {

using cluster::ClusterConfig;

ClusterConfig tiny() {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  return cfg;
}

TEST(FineGrained, JobCompletesUnderController) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = FineGrainedController::attach(cl, job);
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
  auto ctl = FineGrainedController::attach(cl, job, pol);
  job.run();
  cl.simr().run();  // must terminate: the controller stops rescheduling
  EXPECT_TRUE(job.done());
  // The simulator drained, i.e. no immortal sampling loop.
  EXPECT_FALSE(cl.simr().step());
}

TEST(FineGrained, SamplingStopsAfterAbortedJob) {
  // Every bio on the one host fails, so the job aborts; the sampler must
  // stop with it and let the simulator drain. The event budget turns a
  // sampler that outlives the job into a budget stop instead of a hang.
  ClusterConfig cfg;
  cfg.n_hosts = 1;
  cfg.vms_per_host = 1;
  cfg.faults = *fault::FaultPlan::parse("transient:host=0,p=1");
  cfg.budget.max_events = 1'000'000;
  auto jc = workloads::make_job(workloads::stream_sort(), 8 * mapred::kMiB);
  std::shared_ptr<FineGrainedController> ctl;
  const auto r = cluster::run_job(cfg, jc, [&ctl](cluster::Cluster& cl, mapred::Job& job) {
    ctl = FineGrainedController::attach(cl, job);
  });
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.stop, sim::StopReason::kDrained);
}

TEST(FineGrained, ZeroAssumedGainBlocksSwitching) {
  // CheapSwitchingAdaptsToRegimes' run, which does switch, with the gate shut.
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 256 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  FineGrainedPolicy pol;
  pol.sample_period = sim::Time::from_sec(5);
  pol.min_switch_gap = sim::Time::from_sec(5);
  pol.assumed_rate_gain = 0.0;  // no saving ever repays kSwitchCostSeconds
  auto ctl = FineGrainedController::attach(cl, job, pol);
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
  pol.assumed_rate_gain = 1e9;  // any remaining work repays a switch
  auto ctl = FineGrainedController::attach(cl, job, pol);
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
  pol.assumed_rate_gain = 1e9;  // any remaining work repays a switch
  auto ctl = FineGrainedController::attach(cl, job, pol);
  job.run();
  cl.simr().run();
  EXPECT_LE(ctl->total_switches(), static_cast<int>(cl.n_hosts()));
}

TEST(FineGrained, DefaultPolicySwitchesAtPaperScale) {
  // The default thresholds, pairs, hysteresis, gap and gain, on the default
  // 4x4 cluster: a 512 MB sort is long enough to cross regimes and to repay
  // the switch cost, and no host switches twice within min_switch_gap.
  trace::TraceSession session;
  cluster::Cluster cl(ClusterConfig{});
  auto jc = workloads::make_job(workloads::stream_sort(), 512 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  const FineGrainedPolicy pol;
  auto ctl = FineGrainedController::attach(cl, job, pol);
  job.run();
  cl.simr().run();
  ASSERT_TRUE(job.done());
  EXPECT_GE(ctl->total_switches(), 1);

  auto& tr = session.tracer();
  std::map<std::int64_t, std::vector<std::int64_t>> switch_ns_by_host;
  tr.for_each([&](const trace::Event& e) {
    if (e.name == tr.ids.fg_switch) switch_ns_by_host[e.arg[0]].push_back(e.ts_ns);
  });
  int traced = 0;
  for (auto& [host, times] : switch_ns_by_host) {
    std::sort(times.begin(), times.end());
    traced += static_cast<int>(times.size());
    for (std::size_t i = 1; i < times.size(); ++i) {
      EXPECT_GE(times[i] - times[i - 1], pol.min_switch_gap.ns()) << "host " << host;
    }
  }
  EXPECT_EQ(traced, ctl->total_switches());
}

}  // namespace
}  // namespace iosim::core
