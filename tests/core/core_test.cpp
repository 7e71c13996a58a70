// Tests for phase planning/detection, pair schedules, and the adaptive
// controller.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/runner.hpp"
#include "core/adaptive_controller.hpp"
#include "core/pair_schedule.hpp"
#include "core/phase_detector.hpp"
#include "core/phase_plan.hpp"
#include "exp/artifact.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {
namespace {

using cluster::ClusterConfig;
using iosched::SchedulerKind;
using sim::Time;

ClusterConfig tiny() {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  return cfg;
}

TEST(PhasePlan, WavesFormulaMatchesTableII) {
  auto jc = workloads::make_job(workloads::stream_sort(), 512 * mapred::kMiB);
  // 8 blocks per VM over 2 map slots = 4 waves, any VM count.
  EXPECT_DOUBLE_EQ(PhasePlan::waves(jc, 16), 4.0);
  EXPECT_DOUBLE_EQ(PhasePlan::waves(jc, 4), 4.0);
  jc.input_bytes_per_vm = 128 * mapred::kMiB;
  EXPECT_DOUBLE_EQ(PhasePlan::waves(jc, 16), 1.0);
}

TEST(PhasePlan, MergeRuleFollowsWaveCount) {
  auto jc = workloads::make_job(workloads::stream_sort(), 512 * mapred::kMiB);
  EXPECT_TRUE(PhasePlan::for_job(jc, 16).merge_shuffle_tail);   // 4 waves
  EXPECT_EQ(PhasePlan::for_job(jc, 16).count(), 2);
  jc.input_bytes_per_vm = 128 * mapred::kMiB;                    // 1 wave
  EXPECT_FALSE(PhasePlan::for_job(jc, 16).merge_shuffle_tail);
  EXPECT_EQ(PhasePlan::for_job(jc, 16).count(), 3);
}

TEST(PairSchedule, SingleHasNoSwitches) {
  const auto s = PairSchedule::single({SchedulerKind::kCfq, SchedulerKind::kCfq}, 3);
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s.switches(), 0);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s.effective(i), iosched::kDefaultPair);
}

TEST(PairSchedule, EffectiveResolvesZeros) {
  PairSchedule s;
  s.phases = {iosched::SchedulerPair{SchedulerKind::kAnticipatory, SchedulerKind::kCfq},
              std::nullopt,
              iosched::SchedulerPair{SchedulerKind::kDeadline, SchedulerKind::kDeadline}};
  EXPECT_EQ(s.effective(0).vmm, SchedulerKind::kAnticipatory);
  EXPECT_EQ(s.effective(1).vmm, SchedulerKind::kAnticipatory);  // the "0"
  EXPECT_EQ(s.effective(2).vmm, SchedulerKind::kDeadline);
  EXPECT_EQ(s.switches(), 1);
}

TEST(PairSchedule, RedundantEntryCountsAsSwitch) {
  PairSchedule s;
  s.phases = {iosched::kDefaultPair, iosched::SchedulerPair{SchedulerKind::kCfq,
                                                            SchedulerKind::kCfq}};
  // Same pair named explicitly: no *effective* transition.
  EXPECT_EQ(s.switches(), 0);
}

TEST(PairSchedule, StringAndKeyFormats) {
  PairSchedule s;
  s.phases = {iosched::SchedulerPair{SchedulerKind::kAnticipatory, SchedulerKind::kCfq},
              std::nullopt};
  EXPECT_EQ(s.to_string(), "[(anticipatory, cfq) -> 0]");
  EXPECT_EQ(s.key(), "ac--");
}

TEST(PhaseDetector, ReportsPhaseEntriesInOrder) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  std::vector<std::pair<int, Time>> entries;
  PhaseDetector::attach(job, PhasePlan{/*merge=*/false},
                        [&](int ph, Time t) { entries.emplace_back(ph, t); });
  job.run();
  cl.simr().run();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 0);
  EXPECT_EQ(entries[1].first, 1);
  EXPECT_EQ(entries[2].first, 2);
  EXPECT_LE(entries[0].second, entries[1].second);
  EXPECT_LE(entries[1].second, entries[2].second);
  EXPECT_EQ(entries[1].second, job.stats().t_maps_done);
  EXPECT_EQ(entries[2].second, job.stats().t_shuffle_done);
}

TEST(PhaseDetector, MergedPlanSkipsShuffleBoundary) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  std::vector<int> phases;
  PhaseDetector::attach(job, PhasePlan{/*merge=*/true},
                        [&](int ph, Time) { phases.push_back(ph); });
  job.run();
  cl.simr().run();
  EXPECT_EQ(phases, (std::vector<int>{0, 1}));
}

TEST(PhaseDetector, ChainsExistingCallbacks) {
  cluster::Cluster cl(tiny());
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  // Both observers see maps-done, the one installed first runs first.
  std::vector<std::string> order;
  job.on_maps_done = [&](Time) { order.push_back("user"); };
  PhaseDetector::attach(job, PhasePlan{true}, [&](int ph, Time) {
    if (ph == 1) order.push_back("detector");
  });
  job.run();
  cl.simr().run();
  EXPECT_EQ(order, (std::vector<std::string>{"user", "detector"}));
}

TEST(AdaptiveController, SwitchesAtMapsDone) {
  ClusterConfig cfg = tiny();
  cfg.pair = {SchedulerKind::kAnticipatory, SchedulerKind::kAnticipatory};
  cluster::Cluster cl(cfg);
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);

  PairSchedule sched;
  sched.phases = {cfg.pair,
                  iosched::SchedulerPair{SchedulerKind::kDeadline, SchedulerKind::kDeadline}};
  auto ctl = AdaptiveController::attach(cl, job, sched, PhasePlan{true});
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done());
  EXPECT_EQ(ctl->switches_performed(), 1);
  EXPECT_EQ(cl.pair().vmm, SchedulerKind::kDeadline);
  EXPECT_EQ(cl.host(0).dom0_layer().counters().scheduler_switches, 1u);
}

TEST(AdaptiveController, NoSwitchForNulloptPhase) {
  ClusterConfig cfg = tiny();
  cluster::Cluster cl(cfg);
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  mapred::Job job(cl.env(), jc, 3);
  auto ctl = AdaptiveController::attach(
      cl, job, PairSchedule::single(cfg.pair, 2), PhasePlan{true});
  job.run();
  cl.simr().run();
  EXPECT_EQ(ctl->switches_performed(), 0);
  EXPECT_EQ(cl.host(0).dom0_layer().counters().scheduler_switches, 0u);
}

TEST(AdaptiveController, SwitchCostSlowsTheJob) {
  // A schedule that switches to the SAME effective behaviour still pays the
  // quiesce: the run must not be faster than the plain single-pair run.
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  const double plain = cluster::run_job(tiny(), jc).seconds;

  PairSchedule with_switch;
  with_switch.phases = {iosched::kDefaultPair,
                        iosched::SchedulerPair{SchedulerKind::kCfq, SchedulerKind::kCfq}};
  const double switched =
      cluster::run_job(tiny(), jc, [&](cluster::Cluster& cl, mapred::Job& job) {
        AdaptiveController::attach(cl, job, with_switch, PhasePlan{true});
      }).seconds;
  EXPECT_GE(switched, plain - 1e-9);
}

// ---- switch-retry backoff (graceful degradation under a faulted
// management plane) ----

ClusterConfig tiny_with_faults(const std::string& plan_text) {
  ClusterConfig cfg = tiny();
  std::string err;
  auto plan = fault::FaultPlan::parse(plan_text, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  cfg.faults = plan.value_or(fault::FaultPlan{});
  return cfg;
}

PairSchedule to_deadline(const ClusterConfig& cfg) {
  PairSchedule sched;
  sched.phases = {cfg.pair, iosched::SchedulerPair{SchedulerKind::kDeadline,
                                                   SchedulerKind::kDeadline}};
  return sched;
}

TEST(AdaptiveController, FailedSwitchRetriesWithBackoffThenLands) {
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  // The switch command fires at the maps-done boundary; learn when that is
  // from a run whose fault window never opens. The plan must be non-empty:
  // constructing the injector draws one seed from the cluster seeder, and
  // only a run with the same draw reproduces the boundary time exactly.
  const double t_maps =
      cluster::run_job(tiny_with_faults("switchfail:p=1,from=9e9"), jc)
          .ph1_seconds;

  // Fail every switch command until 1 s past the boundary. The first
  // attempt and the +0.5 s retry fall inside the window; the +1.5 s retry
  // (backoff doubled) lands after it and succeeds.
  char plan[64];
  std::snprintf(plan, sizeof plan, "switchfail:p=1,until=%.3f", t_maps + 1.0);
  const ClusterConfig cfg = tiny_with_faults(plan);
  std::shared_ptr<AdaptiveController> ctl;
  const auto r =
      cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
        ctl = AdaptiveController::attach(cl, job, to_deadline(cfg), PhasePlan{true});
      });
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(ctl->switch_failures(), 2);
  EXPECT_EQ(ctl->switch_retries(), 2);  // one failed retry + the one that landed
  EXPECT_EQ(ctl->switches_performed(), 1);
}

TEST(AdaptiveController, PermanentSwitchFailureKeepsOldPairAndGivesUp) {
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  const ClusterConfig cfg = tiny_with_faults("switchfail:p=1");
  std::shared_ptr<AdaptiveController> ctl;
  iosched::SchedulerPair final_pair;
  const auto r =
      cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
        ctl = AdaptiveController::attach(cl, job, to_deadline(cfg), PhasePlan{true});
        job.on_done = [&cl, &final_pair](Time) { final_pair = cl.pair(); };
      });
  EXPECT_FALSE(r.failed);  // the job itself is fine under the old pair
  EXPECT_EQ(ctl->switches_performed(), 0);
  EXPECT_EQ(final_pair, cfg.pair);
  // Retry budget: initial attempt + kMaxRetries retries, then give up.
  EXPECT_LE(ctl->switch_failures(), AdaptiveController::kMaxRetries + 1);
  EXPECT_GE(ctl->switch_failures(), 2);
  EXPECT_LE(ctl->switch_retries(), AdaptiveController::kMaxRetries);
}

TEST(AdaptiveController, DelayedSwitchStillLands) {
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  const ClusterConfig cfg = tiny_with_faults("switchdelay:delay=2");
  std::shared_ptr<AdaptiveController> ctl;
  iosched::SchedulerPair final_pair;
  const auto r =
      cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
        ctl = AdaptiveController::attach(cl, job, to_deadline(cfg), PhasePlan{true});
        job.on_done = [&cl, &final_pair](Time) { final_pair = cl.pair(); };
      });
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(ctl->switches_performed(), 1);  // accepted, just late
  EXPECT_EQ(ctl->switch_failures(), 0);
  EXPECT_EQ(final_pair.vmm, SchedulerKind::kDeadline);
}

// Whole-run trace digests of single-job controller runs whose switch
// commands fail and retry, or land late. Any change to when the controller
// issues, retries or supersedes a switch, or to what it traces, moves them.
// (Re-pinned when merge output of more than one io unit began to go out as
// several bios: these runs' reduce writes used to exceed the block layer's
// largest request.)
std::uint64_t traced_controller_digest(const ClusterConfig& cfg,
                                       const mapred::JobConf& jc) {
  trace::TraceSession session;
  const auto r =
      cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
        AdaptiveController::attach(cl, job, to_deadline(cfg), PhasePlan{true});
      });
  EXPECT_FALSE(r.failed);
  return exp::fnv1a64(session.tracer().to_json());
}

TEST(AdaptiveController, RetryTraceDigestIsPinned) {
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  const double t_maps =
      cluster::run_job(tiny_with_faults("switchfail:p=1,from=9e9"), jc)
          .ph1_seconds;
  char plan[64];
  std::snprintf(plan, sizeof plan, "switchfail:p=1,until=%.3f", t_maps + 1.0);
  EXPECT_EQ(traced_controller_digest(tiny_with_faults(plan), jc),
            0x7ae15b60db94c641ULL);
}

TEST(AdaptiveController, DelayedSwitchTraceDigestIsPinned) {
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  EXPECT_EQ(traced_controller_digest(tiny_with_faults("switchdelay:delay=2"), jc),
            0x5df2146455be8a2fULL);
}

}  // namespace
}  // namespace iosim::core
