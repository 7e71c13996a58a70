// Online meta-scheduler tests: bandit-policy unit behaviour (convergence,
// greedy mode, decay, switch-penalty discounting), determinism of full
// policy-driven stream runs, offline-vs-online parity on a stationary
// stream, and fault-driven re-exploration.
#include "core/online_scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "exp/artifact.hpp"
#include "fault/fault_plan.hpp"
#include "sim/random.hpp"
#include "trace/trace.hpp"

namespace iosim::core {
namespace {

constexpr int kArms = iosched::kNumSchedulerPairs;
using PenaltyArray = std::array<double, kArms>;

OnlineConfig ucb_all_arms(std::uint64_t seed = 42) {
  OnlineConfig cfg;
  cfg.kind = tenancy::MetaPolicy::kUcb;
  cfg.budget = kArms;  // every arm a candidate: pure policy behaviour
  cfg.seed = seed;
  return cfg;
}

TEST(OnlinePolicy, UcbConvergesToTheBestArmWithoutPenalties) {
  auto policy = make_online_policy(ucb_all_arms());
  const PenaltyArray none{};
  // Arm 5 pays 100, everything else 20. After enough pulls the confidence
  // bonus shrinks and the policy must settle on 5.
  int arm = 0;
  for (int i = 0; i < 200; ++i) {
    arm = policy->select(0, arm, none);
    policy->reward(0, arm, arm == 5 ? 100.0 : 20.0);
  }
  EXPECT_EQ(policy->select(0, arm, none), 5);
  const double best_pulls = policy->stats(0, 5).pulls;
  for (int a = 0; a < kArms; ++a) {
    if (a == 5) continue;
    EXPECT_LT(policy->stats(0, a).pulls, best_pulls) << "arm " << a;
  }
  EXPECT_NEAR(policy->stats(0, 5).value, 100.0, 1e-9);
}

TEST(OnlinePolicy, EgreedyWithZeroExploreIsPureGreedy) {
  OnlineConfig cfg;
  cfg.kind = tenancy::MetaPolicy::kEgreedy;
  cfg.explore = 0.0;  // epsilon 0: the coin never fires
  cfg.budget = kArms;
  cfg.seed = 7;
  auto policy = make_online_policy(cfg);
  EXPECT_STREQ(policy->name(), "egreedy");
  const PenaltyArray none{};
  // With no estimates everything ties and greedy keeps the current arm.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(policy->select(1, 3, none), 3);
  // Once the current arm is measured worse than a sampled rival, greedy
  // must move to the rival, every time. (Unsampled arms rank at the
  // sampled mean, 55 here — below the rival's 100, so they never win.)
  policy->reward(1, 3, 10.0);
  policy->reward(1, 2, 100.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(policy->select(1, 3, none), 2);
}

TEST(OnlinePolicy, DecayAllShrinksPullCountsEverywhere) {
  auto policy = make_online_policy(ucb_all_arms());
  policy->reward(0, 1, 50.0);
  policy->reward(0, 1, 50.0);
  policy->reward(2, 4, 30.0);
  policy->decay_all(0.5);
  EXPECT_DOUBLE_EQ(policy->stats(0, 1).pulls, 1.0);
  EXPECT_DOUBLE_EQ(policy->stats(2, 4).pulls, 0.5);
  // Values survive the decay — only the confidence mass ages.
  EXPECT_GT(policy->stats(0, 1).value, 0.0);
}

TEST(OnlinePolicy, SwitchPenaltyBlocksAMarginalMoveButNotAFreeOne) {
  auto policy = make_online_policy(ucb_all_arms());
  // Equal pull counts keep the confidence bonus identical across arms, so
  // selection ranks purely by value minus penalty.
  for (int i = 0; i < 50; ++i) {
    for (int a = 0; a < kArms; ++a) {
      policy->reward(0, a, a == 1 ? 50.0 : (a == 2 ? 55.0 : 10.0));
    }
  }
  PenaltyArray penalty{};
  EXPECT_EQ(policy->select(0, 1, penalty), 2);  // free switch: take the gain
  penalty[2] = 100.0;  // a 100-unit quiesce for a 5-unit gain: stay put
  EXPECT_EQ(policy->select(0, 1, penalty), 1);
}

// --- Full policy-driven stream runs ----------------------------------------

cluster::ClusterConfig small_cluster(std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  cfg.seed = seed;
  return cfg;
}

tenancy::StreamSpec spec_with_meta(const std::string& meta_body) {
  std::string text =
      "arrive,poisson,rate=0.05,jobs=6;class,name=a,wl=sort,mb=10-14";
  if (!meta_body.empty()) text += ";meta," + meta_body;
  std::string err;
  const auto s = tenancy::StreamSpec::parse(text, &err);
  EXPECT_TRUE(s.has_value()) << err;
  return *s;
}

std::uint64_t traced_policy_digest(const tenancy::StreamSpec& spec,
                                   std::uint64_t seed,
                                   MetaStreamResult* out = nullptr,
                                   const std::string& fault_plan = "") {
  cluster::ClusterConfig cfg = small_cluster(seed);
  if (!fault_plan.empty()) {
    std::string err;
    const auto plan = fault::FaultPlan::parse(fault_plan, &err);
    EXPECT_TRUE(plan.has_value()) << err;
    cfg.faults = plan.value_or(fault::FaultPlan{});
  }
  trace::TraceSession session;
  const MetaStreamResult r = run_stream_with_policy(cfg, spec);
  EXPECT_TRUE(r.stream.ok) << r.stream.error;
  if (out != nullptr) *out = r;
  return exp::fnv1a64(session.tracer().to_json());
}

TEST(OnlineScheduler, SameSeedIsByteIdenticalWithOnlineControllerOn) {
  const auto spec = spec_with_meta("policy=ucb");
  MetaStreamResult ra, rb;
  const std::uint64_t a = traced_policy_digest(spec, 11, &ra);
  const std::uint64_t b = traced_policy_digest(spec, 11, &rb);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.stream.jobs_completed, 6);
  EXPECT_EQ(ra.arm_pulls, rb.arm_pulls);
  EXPECT_EQ(ra.arm_switches, rb.arm_switches);
  EXPECT_GT(ra.arm_pulls, 0);  // the bandit actually ran
  // A different seed must actually move the simulation.
  EXPECT_NE(a, traced_policy_digest(spec, 12));
}

// Whole-run trace digests of every policy-driven controller path: the
// bandit (both policies), the offline pipeline, the decay path (a VM crash
// mid-stream) and the bandit's switch-failure telemetry. Any change to when
// a controller pulls, switches, retries or what it traces moves these. The
// offline pipeline's trace holds every side-cluster run Algorithm 1 makes;
// it has no run after the search (the solution's run is the search's own).
TEST(OnlineScheduler, PolicyTraceDigestsArePinned) {
  MetaStreamResult ucb, egreedy, offline;
  EXPECT_EQ(traced_policy_digest(spec_with_meta("policy=ucb"), 11, &ucb),
            0xba384ba7d25d5861ULL);
  EXPECT_EQ(traced_policy_digest(spec_with_meta("policy=egreedy"), 11, &egreedy),
            0xf37c04d25f269930ULL);
  EXPECT_EQ(traced_policy_digest(spec_with_meta("policy=offline"), 11, &offline),
            0xe91acf0a48d4a63eULL);
  // The pins must cover real switches, not just pulls.
  EXPECT_GT(ucb.arm_switches, 0);
  EXPECT_GT(egreedy.arm_switches, 0);
}

TEST(OnlineScheduler, FaultPathTraceDigestsArePinned) {
  MetaStreamResult crash, ucb_fail;
  EXPECT_EQ(traced_policy_digest(spec_with_meta("policy=ucb"), 11, &crash,
                                 "vmcrash:vm=0,from=30"),
            0x5bdc1d5b8ad6ed4fULL);
  EXPECT_GE(crash.decays, 1);
  EXPECT_EQ(traced_policy_digest(spec_with_meta("policy=ucb"), 11, &ucb_fail,
                                 "switchfail:p=0.5"),
            0xf154b3be1abfdb49ULL);
  EXPECT_GT(ucb_fail.switch_failures, 0);
}

// Algorithm 1 falls back to one pair on these short streams, so the offline
// pin above never switches. Replay a hand-built schedule that does: cfq
// for maps, deadline once the cluster shuffles, anticipatory for reduces.
std::uint64_t traced_player_digest(const std::string& fault_plan,
                                   int* switches, int* failures) {
  cluster::ClusterConfig cfg = small_cluster(11);
  if (!fault_plan.empty()) {
    std::string err;
    const auto plan = fault::FaultPlan::parse(fault_plan, &err);
    EXPECT_TRUE(plan.has_value()) << err;
    cfg.faults = plan.value_or(fault::FaultPlan{});
  }
  PairSchedule sched;
  sched.phases = {cfg.pair,
                  iosched::SchedulerPair{iosched::SchedulerKind::kDeadline,
                                         iosched::SchedulerKind::kDeadline},
                  iosched::SchedulerPair{iosched::SchedulerKind::kAnticipatory,
                                         iosched::SchedulerKind::kCfq}};
  trace::TraceSession session;
  std::shared_ptr<SchedulePlayer> player;
  const auto r = tenancy::run_stream(
      cfg, spec_with_meta(""), [&](cluster::Cluster& cl, mapred::Job& job, int) {
        if (!player) player = SchedulePlayer::create(cl, sched, PhasePlan{false});
        player->attach_stream_job(job);
      });
  EXPECT_TRUE(r.ok) << r.error;
  *switches = player->switches_performed();
  trace::Tracer& tr = session.tracer();
  const std::uint32_t core = tr.track("core");
  *failures = 0;
  tr.for_each([&](const trace::Event& e) {
    if (e.track == core && e.name == tr.ids.switch_fail) ++*failures;
  });
  return exp::fnv1a64(tr.to_json());
}

TEST(SchedulePlayer, ReplayTraceDigestsArePinned) {
  int switches = 0, failures = 0;
  EXPECT_EQ(traced_player_digest("", &switches, &failures), 0x0b1364edf7c77e1aULL);
  EXPECT_GT(switches, 1);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(traced_player_digest("switchfail:p=0.5", &switches, &failures),
            0x5d79553d9b71c374ULL);
  EXPECT_GT(failures, 0);
}

TEST(OnlineScheduler, OnlineStaysCompetitiveWithOfflineOnStationaryStream) {
  // A stationary single-class stream is the offline pipeline's best case:
  // its profiled corpus never goes stale. The bandit pays for exploration
  // out of the same makespan, so parity-within-slack is the bar here — the
  // fig7_online spec's expect checks hold the tighter fig7 tolerance.
  MetaStreamResult off, ucb;
  traced_policy_digest(spec_with_meta("policy=offline"), 11, &off);
  traced_policy_digest(spec_with_meta("policy=ucb"), 11, &ucb);
  EXPECT_EQ(off.stream.jobs_completed, 6);
  EXPECT_EQ(ucb.stream.jobs_completed, 6);
  EXPECT_LT(ucb.stream.makespan_s, off.stream.makespan_s * 1.5);
  // The offline pipeline really ran Algorithm 1: all 16 pairs profiled and
  // a concrete schedule chosen.
  EXPECT_EQ(off.profile_runs, 16);
  EXPECT_GT(off.heuristic_evals, 0);
  EXPECT_FALSE(off.schedule_key.empty());
  EXPECT_FALSE(off.boot_pair.empty());
}

TEST(OnlineScheduler, StaticPolicyPinsTheBootPair) {
  MetaStreamResult r;
  traced_policy_digest(spec_with_meta("policy=static,pair=nn"), 11, &r);
  EXPECT_EQ(r.boot_pair, "nn");
  EXPECT_EQ(r.arm_pulls, 0);
  EXPECT_EQ(r.arm_switches, 0);
  EXPECT_EQ(r.stream.jobs_completed, 6);
}

TEST(OnlineScheduler, FaultEventDecaysEstimatesAndKeepsLearning) {
  // A VM dies mid-stream: membership declares it dead, the bandit must age
  // its estimates (decays > 0) and the stream still finishes under the
  // survivors.
  auto cfg = small_cluster(11);
  std::string ferr;
  const auto plan = fault::FaultPlan::parse("vmcrash:vm=0,from=30", &ferr);
  ASSERT_TRUE(plan.has_value()) << ferr;
  cfg.faults = *plan;

  trace::TraceSession session;
  const MetaStreamResult r =
      run_stream_with_policy(cfg, spec_with_meta("policy=ucb"));
  EXPECT_TRUE(r.stream.ok) << r.stream.error;
  EXPECT_GE(r.decays, 1);
  EXPECT_GT(r.arm_pulls, 0);
  EXPECT_GT(r.stream.jobs_completed, 0);
}

TEST(OnlineScheduler, MetaFreeRunsEmitNoMetaTrackEvents) {
  // Guard for the "pinned digests unchanged when meta-free" acceptance
  // criterion: without a meta segment nothing may touch the meta track.
  trace::TraceSession session;
  const MetaStreamResult r =
      run_stream_with_policy(small_cluster(11), spec_with_meta(""));
  EXPECT_TRUE(r.stream.ok) << r.stream.error;
  const std::string json = session.tracer().to_json();
  EXPECT_EQ(json.find("tt_arm_pull"), std::string::npos);
  EXPECT_EQ(json.find("tt_arm_switch"), std::string::npos);
}

}  // namespace
}  // namespace iosim::core
