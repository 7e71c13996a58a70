#include "core/meta_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
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

mapred::JobConf small_sort() {
  return workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
}

MetaSchedulerOptions opts_for(const mapred::JobConf& jc, int n_vms) {
  MetaSchedulerOptions o;
  o.plan = PhasePlan::for_job(jc, n_vms);
  return o;
}

TEST(MetaScheduler, ProfileCoversAllSixteenPairs) {
  const auto jc = small_sort();
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  const auto profile = ms.profile_all_pairs();
  ASSERT_EQ(profile.size(), 16u);
  std::set<int> seen;
  for (const auto& e : profile) {
    seen.insert(e.pair.index());
    EXPECT_GT(e.total_seconds, 0.0);
    ASSERT_EQ(e.phase_seconds.size(),
              static_cast<std::size_t>(opts_for(jc, 4).plan.count()));
    double sum = 0;
    for (double p : e.phase_seconds) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, e.total_seconds, e.total_seconds * 0.01);
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(MetaScheduler, OptimizeProducesValidSolution) {
  const auto jc = small_sort();
  const auto opts = opts_for(jc, 4);
  MetaScheduler ms(tiny(), jc, opts);
  const MetaResult r = ms.optimize();

  ASSERT_EQ(r.solution.count(), opts.plan.count());
  ASSERT_TRUE(r.solution.phases[0].has_value());
  EXPECT_GT(r.adaptive_seconds, 0.0);
  EXPECT_GT(r.default_seconds, 0.0);
  EXPECT_GT(r.best_single_seconds, 0.0);
  EXPECT_LE(r.best_single_seconds, r.default_seconds);
  EXPECT_EQ(r.profile.size(), 16u);
  // Algorithm 1's bound: at most P x S full executions beyond profiling.
  EXPECT_LE(r.heuristic_evaluations, opts.plan.count() * 16);
  EXPECT_GE(r.heuristic_evaluations, opts.plan.count());
}

TEST(MetaScheduler, AdaptiveNotMeaningfullyWorseThanBestSingle) {
  // The heuristic evaluates the best single pair as a candidate schedule,
  // so the solution can only beat it or tie it (up to one switch cost).
  const auto jc = small_sort();
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  const MetaResult r = ms.optimize();
  EXPECT_LE(r.adaptive_seconds, r.best_single_seconds * 1.05);
}

TEST(MetaScheduler, ExecuteMatchesOptimizeResult) {
  const auto jc = small_sort();
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  const MetaResult r = ms.optimize();
  const auto rerun = ms.execute(r.solution);
  EXPECT_NEAR(rerun.seconds, r.adaptive_seconds, 1e-9);  // deterministic
}

/// A synthetic three-phase experiment that counts its executions: phase k
/// under pair p takes 10 + (7p + 5k) mod 16 s, a switch costs 1 s, and every
/// execution pays `penalty` on top (a large one makes Algorithm 1's
/// schedule lose to the best single pair, so optimize falls back).
struct CountingExperiment {
  static double phase_seconds(SchedulerPair p, int k) {
    return 10.0 + static_cast<double>((7 * p.index() + 5 * k) % 16);
  }
  static double seconds(const PairSchedule& s, double penalty) {
    double t = penalty + s.switches();
    for (int k = 0; k < s.count(); ++k) t += phase_seconds(s.effective(k), k);
    return t;
  }
  static Experiment make(int* executions, double penalty) {
    Experiment e;
    e.phases = 3;
    e.profile = [](SchedulerPair p) {
      ProfileEntry entry;
      entry.pair = p;
      for (int k = 0; k < 3; ++k) {
        entry.phase_seconds.push_back(phase_seconds(p, k));
        entry.total_seconds += entry.phase_seconds.back();
      }
      return entry;
    };
    e.execute = [executions, penalty](const PairSchedule& s) {
      ++*executions;
      cluster::RunResult r;
      r.seconds = seconds(s, penalty);
      return r;
    };
    return e;
  }
};

TEST(MetaScheduler, OptimizeExecutesEachScheduleOnce) {
  // The adaptive run is Algorithm 1's own evaluation of the solution: the
  // experiment runs once per heuristic evaluation, and once more only for
  // the fallback's best single pair.
  for (const double penalty : {0.0, 1000.0}) {
    int executions = 0;
    MetaScheduler ms(CountingExperiment::make(&executions, penalty), {});
    const MetaResult r = ms.optimize();
    EXPECT_EQ(r.fell_back, penalty > 0.0);
    EXPECT_EQ(executions, r.heuristic_evaluations + (r.fell_back ? 1 : 0))
        << "penalty " << penalty;
    EXPECT_EQ(r.adaptive_seconds, CountingExperiment::seconds(r.solution, penalty));
    EXPECT_EQ(r.adaptive_run.seconds, r.adaptive_seconds);
  }
}

TEST(MetaScheduler, ImprovementAccessors) {
  MetaResult r;
  r.adaptive_seconds = 75;
  r.default_seconds = 100;
  r.best_single_seconds = 90;
  EXPECT_NEAR(r.improvement_vs_default(), 0.25, 1e-12);
  EXPECT_NEAR(r.improvement_vs_best_single(), 1.0 - 75.0 / 90.0, 1e-12);
}

TEST(MetaScheduler, ThreePhasePlanWorks) {
  // One-wave configuration: the plan keeps the shuffle tail separate.
  auto jc = workloads::make_job(workloads::stream_sort(), 128 * mapred::kMiB);
  MetaSchedulerOptions o;
  o.plan = PhasePlan{/*merge_shuffle_tail=*/false};
  MetaScheduler ms(tiny(), jc, o);
  const MetaResult r = ms.optimize();
  EXPECT_EQ(r.solution.count(), 3);
  EXPECT_GT(r.adaptive_seconds, 0.0);
}

TEST(MetaScheduler, ProfileInstantsAdvanceTheMetaClock) {
  // Every profiling run advances the search's own clock, so the meta-track
  // profile instants carry strictly increasing timestamps.
  const auto jc = workloads::make_job(workloads::stream_sort(), 16 * mapred::kMiB);
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  trace::TraceSession session;
  ms.profile_all_pairs();
  trace::Tracer& tr = session.tracer();
  const std::uint32_t meta = tr.track("meta");
  std::vector<std::int64_t> ts;
  tr.for_each([&](const trace::Event& e) {
    if (e.track == meta && e.name == tr.ids.profile) ts.push_back(e.ts_ns);
  });
  ASSERT_EQ(ts.size(), 16u);
  std::int64_t prev = 0;
  for (const std::int64_t t : ts) {
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MetaScheduler, SingleScheduleExecutesWithoutSwitch) {
  const auto jc = small_sort();
  MetaScheduler ms(tiny(), jc, opts_for(jc, 4));
  const auto single = PairSchedule::single(iosched::kDefaultPair, 2);
  const auto r = ms.execute(single);
  EXPECT_GT(r.seconds, 0.0);
  // Equals the plain fixed-pair run exactly. execute() averages over one
  // derived seed, so the reference run uses derive_run_seed(base, 0).
  ClusterConfig derived = tiny();
  derived.seed = sim::derive_run_seed(derived.seed, 0);
  const auto plain = cluster::run_job(derived, jc);
  EXPECT_NEAR(r.seconds, plain.seconds, 1e-9);
}

// Untraced single-job experiment results, pinned exactly: the default
// pair's profile entry and a schedule that switches at every phase
// boundary, for both phase plans and for one and two seeds per evaluation.
// Any change to how the experiment runs, splits phases or averages seeds
// moves them.
struct SingleJobPins {
  double profile_total;
  std::vector<double> profile_phases;
  double execute_seconds;
  std::int64_t execute_maps_done_ns;
  std::int64_t execute_done_ns;
};

void expect_single_job_pins(PhasePlan plan, int seeds, const SingleJobPins& pin) {
  const auto jc = workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  MetaSchedulerOptions o;
  o.plan = plan;
  o.seeds_per_eval = seeds;
  MetaScheduler ms(tiny(), jc, o);
  const auto profile = ms.profile_all_pairs();
  const ProfileEntry* def = nullptr;
  for (const auto& e : profile) {
    if (e.pair == iosched::kDefaultPair) def = &e;
  }
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->total_seconds, pin.profile_total);
  EXPECT_EQ(def->phase_seconds, pin.profile_phases);

  PairSchedule sched;
  sched.phases.assign(static_cast<std::size_t>(plan.count()), std::nullopt);
  sched.phases[0] = iosched::kDefaultPair;
  sched.phases[1] = iosched::SchedulerPair{iosched::SchedulerKind::kDeadline,
                                           iosched::SchedulerKind::kDeadline};
  if (plan.count() > 2) {
    sched.phases[2] = iosched::SchedulerPair{iosched::SchedulerKind::kAnticipatory,
                                             iosched::SchedulerKind::kNoop};
  }
  const auto r = ms.execute(sched);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.seconds, pin.execute_seconds);
  EXPECT_EQ(r.stats.t_maps_done.ns(), pin.execute_maps_done_ns);
  EXPECT_EQ(r.stats.t_done.ns(), pin.execute_done_ns);
}

TEST(MetaScheduler, MergedPlanOneSeedResultsArePinned) {
  expect_single_job_pins(
      PhasePlan{true}, 1,
      {0x1.a3b68077f94fap+4, {0x1.5f873f472c7e2p+4, 0x1.10bd04c33346p+2},
       0x1.c3b7522f10a89p+4, 21970519331, 28232256111});
}

TEST(MetaScheduler, MergedPlanTwoSeedResultsArePinned) {
  expect_single_job_pins(
      PhasePlan{true}, 2,
      {0x1.a26981b29d20cp+4, {0x1.5dee07142401fp+4, 0x1.11edea79e47b2p+2},
       0x1.c26a5369d6d5cp+4, 21970519331, 28232256111});
}

TEST(MetaScheduler, ThreePhasePlanOneSeedResultsArePinned) {
  expect_single_job_pins(
      PhasePlan{false}, 1,
      {0x1.a3b68077f94fap+4, {0x1.5f873f472c7e2p+4, 0x1.b6bf492301035p+0, 0x1.461a64f4e60a5p+1},
       0x1.ce8cfb8e118c5p+4, 21970519331, 28909419589});
}

TEST(MetaScheduler, ThreePhasePlanTwoSeedResultsArePinned) {
  expect_single_job_pins(
      PhasePlan{false}, 2,
      {0x1.a26981b29d20cp+4, {0x1.5dee07142401fp+4, 0x1.ba2927ce728bbp+0, 0x1.46c7410c8fb06p+1},
       0x1.cd3652d2710ccp+4, 21970519331, 28909419589});
}

}  // namespace
}  // namespace iosim::core
