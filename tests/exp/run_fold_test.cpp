// Oracle for the figures folded into specs: a mode=run, seed_mode=repeat
// point must reproduce, run for run, what the hand-written figure binaries
// computed with cluster::run_job / run_job_avg at derive_run_seed(base, i).
// Fig 6, Fig 8 and Table II are judged on these metrics, so a drift between
// the spec path and the cluster runner would silently change the figures.
// Likewise the single-host modes (Fig 1, Fig 5) against
// workloads::run_single_host at the run's raw seed, mode=finegrained against
// a direct FineGrainedController run and a plain run, a job-chain adapt
// point against the meta-scheduler over core::make_chain_experiment, and
// tuned points against the same fields set by hand. Fig 3 and Fig 4's
// metrics are checked against the computation of the figure binaries they
// replaced, kept here as the oracle.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>

#include "cluster/runner.hpp"
#include "core/fine_grained.hpp"
#include "core/meta_scheduler.hpp"
#include "exp/aggregate.hpp"
#include "exp/executor.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "metrics/iostat_sampler.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/microbench.hpp"

namespace iosim::exp {
namespace {

// Two sizes (one and two map waves on 2 x 2 VMs) and two pairs, so a seed
// or size mix-up between points cannot cancel out.
constexpr const char* kSpec =
    "name=fold\nmode=run\nbase_seed=5\nrepeats=3\nseed_mode=repeat\n"
    "pair=cc,da\nworkload=sort\nhosts=2\nvms=2\nmb=128,256\n";

cluster::ClusterConfig cluster_at(const ScenarioPoint& pt, std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = pt.hosts;
  cfg.vms_per_host = pt.vms;
  cfg.pair = pt.pair;
  cfg.seed = seed;
  return cfg;
}

mapred::JobConf job_of(const ScenarioPoint& pt) {
  return workloads::make_job(*workloads::by_name(pt.workload), pt.mb * mapred::kMiB);
}

double metric(const RunOutput& out, const std::string& name) {
  for (const auto& [k, v] : out.metrics) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

TEST(RunFold, MaterializerBuildsThePointsClusterAndJobs) {
  std::string err;
  const auto spec = ScenarioSpec::parse(
      "mode=adapt\nrepeats=1\npair=ad\nworkload=wc+sort\nhosts=3\nvms=2\nmb=48\n"
      "fault=failslow:host=1,factor=2\nmax_events=1000\n",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const ScenarioPoint pt = spec->expand().front();
  const cluster::ClusterConfig cfg = cluster_of(pt, 77);
  EXPECT_EQ(cfg.n_hosts, 3);
  EXPECT_EQ(cfg.vms_per_host, 2);
  EXPECT_EQ(cfg.pair, pt.pair);
  EXPECT_EQ(cfg.seed, 77u);  // as given: the caller derives run seeds
  EXPECT_EQ(cfg.faults.specs.size(), 1u);
  EXPECT_EQ(cfg.budget.max_events, 1000u);
  const auto jobs = jobs_of(pt);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].workload.name, "wordcount");
  EXPECT_EQ(jobs[1].workload.name, "sort");
  for (const auto& jc : jobs) EXPECT_EQ(jc.input_bytes_per_vm, 48 * mapred::kMiB);
  ScenarioPoint unknown = pt;
  unknown.workload = "sort+nosuch";
  EXPECT_TRUE(jobs_of(unknown).empty());
}

TEST(RunFold, RepeatsMatchRunJobAndTheirMeanMatchesRunJobAvg) {
  std::string err;
  const auto spec = ScenarioSpec::parse(kSpec, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto points = spec->expand();
  ASSERT_EQ(points.size(), 4u);
  const auto tasks = build_run_matrix(*spec);
  ExecResult exec;
  for (const RunTask& t : tasks) {
    const std::uint64_t seed =
        sim::derive_run_seed(spec->base_seed, static_cast<std::uint64_t>(t.repeat));
    ASSERT_EQ(t.seed, seed);
    const ScenarioPoint& pt = points[t.point_index];
    const RunOutput out = execute_point(pt, t.seed);
    const cluster::RunResult r = cluster::run_job(cluster_at(pt, seed), job_of(pt));
    ASSERT_TRUE(out.ok) << out.error;
    SCOPED_TRACE(pt.label() + " repeat " + std::to_string(t.repeat));
    EXPECT_EQ(metric(out, "seconds"), r.seconds);
    EXPECT_EQ(metric(out, "ph1_seconds"), r.ph1_seconds);
    EXPECT_EQ(metric(out, "ph2_seconds"), r.ph2_seconds);
    EXPECT_EQ(metric(out, "ph3_seconds"), r.ph3_seconds);
    EXPECT_EQ(metric(out, "ph23_seconds"), r.ph23_seconds);
    EXPECT_EQ(metric(out, "shuffle_tail_pct"), r.stats.shuffle_tail_pct());
    exec.outputs.emplace_back(out);
    ++exec.completed;
  }
  const SweepAggregate agg = aggregate(*spec, points, tasks, exec);
  ASSERT_EQ(agg.points.size(), points.size());
  for (const PointAggregate& pa : agg.points) {
    SCOPED_TRACE(pa.point.label());
    // run_job_avg scales the sum by 1/n and the aggregator keeps a running
    // (Welford) mean, so the two agree only to rounding.
    const cluster::RunResult avg = cluster::run_job_avg(
        cluster_at(pa.point, spec->base_seed), job_of(pa.point), spec->repeats);
    const std::pair<const char*, double> want[] = {
        {"seconds", avg.seconds},         {"ph1_seconds", avg.ph1_seconds},
        {"ph2_seconds", avg.ph2_seconds}, {"ph3_seconds", avg.ph3_seconds},
        {"ph23_seconds", avg.ph23_seconds}};
    ASSERT_EQ(pa.metrics.size(), 30u);
    for (std::size_t i = 0; i < std::size(want); ++i) {
      EXPECT_EQ(pa.metrics[i].name, want[i].first);
      EXPECT_EQ(pa.metrics[i].s.n, 3u) << want[i].first;
      EXPECT_DOUBLE_EQ(pa.metrics[i].s.mean, want[i].second) << want[i].first;
    }
    EXPECT_EQ(pa.metrics[5].name, "shuffle_tail_pct");
    EXPECT_EQ(pa.metrics[6].name, "dom0_mean_mb_s");
    EXPECT_EQ(pa.metrics[7].name, "dom0_max_mb_s");
    EXPECT_EQ(pa.metrics[8].name, "vm_mean_mb_s");
    EXPECT_EQ(pa.metrics[9].name, "vm_fairness");
    EXPECT_EQ(pa.metrics[10].name, "prog05_seconds");
    EXPECT_EQ(pa.metrics[11].name, "prog10_seconds");
    EXPECT_EQ(pa.metrics[28].name, "prog95_seconds");
    EXPECT_EQ(pa.metrics[29].name, "prog100_seconds");
  }
}

/// What the retired Fig. 3 binary measured on one run: iostat's 1 s windows
/// on host 0's Dom0 layer and host 0's per-VM mean MB/s over the job.
struct Fig3Run {
  std::vector<double> dom0;  // MB/s of each window, read + write
  std::vector<double> vm_mean_mb_s;
};

Fig3Run fig3_oracle(const cluster::ClusterConfig& cfg, const mapred::JobConf& jc) {
  Fig3Run out;
  (void)cluster::run_job(cfg, jc, [&out](cluster::Cluster& cl, mapred::Job& job) {
    virt::PhysicalHost& host = cl.host(0);
    auto sampler = std::make_shared<metrics::IostatSampler>(cl.simr());
    sampler->watch(host.dom0_layer());
    sampler->stop_when([&out, &job, s = sampler.get()] {
      if (!job.done()) return false;
      for (const auto& w : s->series(0)) out.dom0.push_back(w.read_mb_s + w.write_mb_s);
      return true;
    });
    sampler->start();
    job.on_done = [&out, &host, sampler](sim::Time t) {
      const double elapsed = t.sec();
      for (std::size_t v = 0; v < host.vm_count(); ++v) {
        const auto& c = host.vm(v).layer().counters();
        const auto bytes = c.bytes_completed[0] + c.bytes_completed[1];
        out.vm_mean_mb_s.push_back(static_cast<double>(bytes) / elapsed / 1e6);
      }
    };
  });
  return out;
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : std::accumulate(xs.begin(), xs.end(), 0.0) /
                                static_cast<double>(xs.size());
}

/// What the retired Fig. 4 binary measured on one plain run: the seconds
/// from the job's start to each 5 % progress milestone, as differences.
std::vector<double> fig4_oracle(const cluster::ClusterConfig& cfg, const mapred::JobConf& jc) {
  const auto r = cluster::run_job(cfg, jc);
  std::vector<double> seg;
  double prev = 0;
  for (const auto& m : r.stats.milestones) {
    const double t = (m.t - r.stats.t_start).sec();
    seg.push_back(t - prev);
    prev = t;
  }
  return seg;
}

TEST(RunFold, RunPointPublishesFig3AndFig4Metrics) {
  // Fig. 3's headline pairs on two hosts, so host 0 is not the only one.
  std::string err;
  const auto spec = ScenarioSpec::parse(
      "mode=run\nbase_seed=9\nrepeats=1\npair=cc,ad\nworkload=sort\nhosts=2\nvms=3\n"
      "mb=192\n",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto points = spec->expand();
  for (const RunTask& t : build_run_matrix(*spec)) {
    const ScenarioPoint& pt = points[t.point_index];
    SCOPED_TRACE(pt.label());
    const Fig3Run f3 = fig3_oracle(cluster_at(pt, t.seed), job_of(pt));
    const std::vector<double> f4 = fig4_oracle(cluster_at(pt, t.seed), job_of(pt));
    ASSERT_GT(f3.dom0.size(), 10u);
    ASSERT_EQ(f3.vm_mean_mb_s.size(), 3u);
    ASSERT_EQ(f4.size(), 20u);
    const RunOutput out = execute_point(pt, t.seed);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.metrics.size(), 30u);
    EXPECT_EQ(metric(out, "dom0_mean_mb_s"), mean(f3.dom0));
    EXPECT_EQ(metric(out, "dom0_max_mb_s"), sim::percentile_nearest_rank(f3.dom0, 1.0));
    EXPECT_EQ(metric(out, "vm_mean_mb_s"), mean(f3.vm_mean_mb_s));
    EXPECT_EQ(metric(out, "vm_fairness"), sim::jain_fairness(f3.vm_mean_mb_s));
    const char* const names[] = {"prog05_seconds", "prog10_seconds", "prog15_seconds",
                                 "prog20_seconds", "prog25_seconds", "prog30_seconds",
                                 "prog35_seconds", "prog40_seconds", "prog45_seconds",
                                 "prog50_seconds", "prog55_seconds", "prog60_seconds",
                                 "prog65_seconds", "prog70_seconds", "prog75_seconds",
                                 "prog80_seconds", "prog85_seconds", "prog90_seconds",
                                 "prog95_seconds", "prog100_seconds"};
    for (std::size_t i = 0; i < f4.size(); ++i) {
      EXPECT_EQ(out.metrics[10 + i].first, names[i]);
      EXPECT_EQ(out.metrics[10 + i].second, f4[i]) << names[i];
    }
    EXPECT_GT(metric(out, "dom0_max_mb_s"), metric(out, "dom0_mean_mb_s"));
  }
}

ScenarioPoint single_host_point(const char* text) {
  std::string err;
  const auto spec = ScenarioSpec::parse(text, &err);
  EXPECT_TRUE(spec.has_value()) << err;
  return spec ? spec->expand().at(0) : ScenarioPoint{};
}

TEST(RunFold, SysbenchPointIsOneRigRun) {
  const ScenarioPoint pt = single_host_point("mode=sysbench\npair=ad\nhosts=1\nvms=2\nmb=16\n");
  EXPECT_EQ(pt.label(), "sysbench v2 16MB (a,d)");
  const RunOutput out = execute_point(pt, 77);
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.metrics.size(), 1u);
  workloads::SeqWriteParams p;
  p.bytes_per_vm = 16 * mapred::kMiB;
  EXPECT_EQ(metric(out, "seconds"),
            workloads::run_single_host({}, pt.pair, 2, 77, p).elapsed.sec());
}

TEST(RunFold, SwitchcostPointMeasuresOneRow) {
  const ScenarioPoint pt =
      single_host_point("mode=switchcost\npair=cc\nhosts=1\nvms=2\nmb=32\n");
  const RunOutput out = execute_point(pt, 42);
  ASSERT_TRUE(out.ok) << out.error;
  // T(cc) alone, T(cc -> cc), then T(cc -> xy) for the 15 other pairs.
  ASSERT_EQ(out.metrics.size(), 17u);
  EXPECT_EQ(out.metrics[0].first, "seconds");
  EXPECT_EQ(out.metrics[1].first, "self_seconds");
  EXPECT_EQ(out.metrics[2].first, "to_nn_seconds");
  EXPECT_EQ(out.metrics[16].first, "to_ca_seconds");
  // The diagonal is non-zero: re-issuing the same pair costs time.
  EXPECT_GT(metric(out, "self_seconds"), metric(out, "seconds"));
  const auto dd = workloads::dd_params(32 * mapred::kMiB);
  const iosched::SchedulerPair to{iosched::SchedulerKind::kDeadline,
                                  iosched::SchedulerKind::kNoop};
  EXPECT_EQ(metric(out, "to_dn_seconds"),
            workloads::run_single_host({}, pt.pair, 2, 42, dd, to).elapsed.sec());
  const RunOutput again = execute_point(pt, 42);
  EXPECT_EQ(again.metrics, out.metrics);
}

TEST(RunFold, SingleHostPointStopsAtItsEventBudget) {
  const RunOutput out = execute_point(
      single_host_point("mode=switchcost\nhosts=1\nvms=2\nmb=32\nmax_events=10\n"), 42);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.budget_stop);
  EXPECT_FALSE(out.infra_failure);
  EXPECT_TRUE(out.metrics.empty());  // the first (solo) run already stopped
  EXPECT_NE(out.error.find("seconds stopped early"), std::string::npos) << out.error;
}

TEST(RunFold, FinegrainedPointIsAControlledRunAndAPlainRun) {
  // Two pairs and a fail-slow host, so a pair, seed or fault mix-up between
  // points cannot cancel out.
  std::string err;
  const auto spec = ScenarioSpec::parse(
      "mode=finegrained\nbase_seed=3\nrepeats=1\npair=cc,ad\nworkload=sort\nhosts=2\n"
      "vms=2\nmb=256\nfault=none|failslow:host=1,factor=1.8\n",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto points = spec->expand();
  int switches = 0;
  for (const RunTask& t : build_run_matrix(*spec)) {
    const ScenarioPoint& pt = points[t.point_index];
    SCOPED_TRACE(pt.label());
    cluster::ClusterConfig cfg = cluster_at(pt, t.seed);
    cfg.faults = pt.faults;
    std::shared_ptr<core::FineGrainedController> ctl;
    const cluster::RunResult fine =
        cluster::run_job(cfg, job_of(pt), [&ctl](cluster::Cluster& cl, mapred::Job& job) {
          ctl = core::FineGrainedController::attach(cl, job);
        });
    const cluster::RunResult plain = cluster::run_job(cfg, job_of(pt));
    const RunOutput out = execute_point(pt, t.seed);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.metrics.size(), 4u);
    EXPECT_EQ(metric(out, "seconds"), fine.seconds);
    EXPECT_EQ(metric(out, "default_seconds"), plain.seconds);
    EXPECT_EQ(metric(out, "gain_vs_default_pct"), 100.0 * (1.0 - fine.seconds / plain.seconds));
    EXPECT_EQ(metric(out, "switches"), ctl->total_switches());
    switches += ctl->total_switches();
  }
  EXPECT_GT(switches, 0);  // the controller acts at this size
}

TEST(RunFold, ChainAdaptPointIsAlgorithm1OverTheChain) {
  std::string err;
  const auto spec = ScenarioSpec::parse(
      "mode=adapt\nbase_seed=2\nrepeats=1\nworkload=wc+sort\nhosts=2\nvms=2\nmb=32\n", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const ScenarioPoint pt = spec->expand().at(0);
  const std::uint64_t seed = build_run_matrix(*spec).at(0).seed;
  const std::vector<mapred::JobConf> confs = {
      workloads::make_job(workloads::wordcount(), 32 * mapred::kMiB),
      workloads::make_job(workloads::stream_sort(), 32 * mapred::kMiB)};
  // The merged plan of the first job applies to every job of the chain.
  const core::PhasePlan plan = core::PhasePlan::for_job(confs[0], 4);
  const core::Experiment exp =
      core::make_chain_experiment(cluster_at(pt, seed), confs, 1, plan);
  EXPECT_EQ(exp.phases, 2 * plan.count());
  const core::MetaResult r = core::MetaScheduler(exp, {}).optimize();
  const RunOutput out = execute_point(pt, seed);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(metric(out, "adaptive_seconds"), r.adaptive_seconds);
  EXPECT_EQ(metric(out, "default_seconds"), r.default_seconds);
  EXPECT_EQ(metric(out, "best_single_seconds"), r.best_single_seconds);
  EXPECT_EQ(metric(out, "gain_vs_default_pct"), 100.0 * r.improvement_vs_default());
  EXPECT_EQ(metric(out, "gain_vs_best_pct"), 100.0 * r.improvement_vs_best_single());
  EXPECT_EQ(metric(out, "heuristic_evals"), r.heuristic_evaluations);
  // Both jobs ran: the chain is not the first job alone.
  EXPECT_EQ(r.adaptive_run.jobs.size(), 2u);
  EXPECT_LE(r.heuristic_evaluations, exp.phases * iosched::kNumSchedulerPairs);
}

TEST(RunFold, TunePointIsTheHandSetConfig) {
  // mode=run: every cluster tunable plus speculation, under a fault plan.
  std::string err;
  const auto run = ScenarioSpec::parse(
      "mode=run\nbase_seed=3\nrepeats=1\npair=ad\nhosts=2\nvms=2\nmb=64\n"
      "fault=transient:host=0,p=0.01\n"
      "tune=dom0.as.antic_expire_ms=2;dom0.cfq.slice_sync_ms=40;dom0.cfq.slice_idle_ms=0;"
      "ring_slots=8;switch_freeze_ms=100;ncq_depth=8;mapred.speculate=1\n",
      &err);
  ASSERT_TRUE(run.has_value()) << err;
  const ScenarioPoint pt = run->expand().at(0);
  const std::uint64_t seed = build_run_matrix(*run).at(0).seed;
  cluster::ClusterConfig cfg = cluster_at(pt, seed);
  cfg.faults = pt.faults;
  cfg.host.dom0_blk.tunables.as.antic_expire = sim::Time::from_sec_f(2.0 / 1e3);
  cfg.host.dom0_blk.tunables.cfq.slice_sync = sim::Time::from_sec_f(40.0 / 1e3);
  cfg.host.dom0_blk.tunables.cfq.slice_idle = sim::Time::zero();
  cfg.host.domu.ring.slots = 8;
  cfg.host.dom0_blk.switch_freeze = sim::Time::from_sec_f(100.0 / 1e3);
  cfg.host.domu.guest_blk.switch_freeze = sim::Time::from_sec_f(100.0 / 1e3);
  cfg.host.disk.ncq_depth = 8;
  mapred::JobConf jc = job_of(pt);
  jc.speculative_execution = true;
  const cluster::RunResult r = cluster::run_job(cfg, jc);
  ASSERT_FALSE(r.failed) << r.failure;
  const RunOutput out = execute_point(pt, seed);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(metric(out, "seconds"), r.seconds);
  EXPECT_EQ(metric(out, "ph1_seconds"), r.ph1_seconds);
  EXPECT_EQ(metric(out, "ph2_seconds"), r.ph2_seconds);
  EXPECT_EQ(metric(out, "ph3_seconds"), r.ph3_seconds);
  ScenarioPoint untuned = pt;
  untuned.tune = {};
  EXPECT_NE(metric(execute_point(untuned, seed), "seconds"), r.seconds);

  // mode=adapt: the split plan where the merge rule picks the merged one
  // (2 map waves), with a cluster tunable beside it.
  const auto adapt = ScenarioSpec::parse(
      "mode=adapt\nbase_seed=4\nrepeats=1\nhosts=1\nvms=1\nmb=256\n"
      "tune=meta.phases=3;switch_freeze_ms=100\n",
      &err);
  ASSERT_TRUE(adapt.has_value()) << err;
  const ScenarioPoint apt = adapt->expand().at(0);
  const std::uint64_t aseed = build_run_matrix(*adapt).at(0).seed;
  ASSERT_TRUE(core::PhasePlan::for_job(job_of(apt), 1).merge_shuffle_tail);
  cluster::ClusterConfig acfg = cluster_at(apt, aseed);
  acfg.host.dom0_blk.switch_freeze = sim::Time::from_sec_f(100.0 / 1e3);
  acfg.host.domu.guest_blk.switch_freeze = sim::Time::from_sec_f(100.0 / 1e3);
  const core::Experiment exp =
      core::make_chain_experiment(acfg, {job_of(apt)}, 1, core::PhasePlan{false});
  EXPECT_EQ(exp.phases, 3);
  const core::MetaResult m = core::MetaScheduler(exp, {}).optimize();
  const RunOutput aout = execute_point(apt, aseed);
  ASSERT_TRUE(aout.ok) << aout.error;
  EXPECT_EQ(metric(aout, "adaptive_seconds"), m.adaptive_seconds);
  EXPECT_EQ(metric(aout, "default_seconds"), m.default_seconds);
  EXPECT_EQ(metric(aout, "best_single_seconds"), m.best_single_seconds);
  EXPECT_EQ(metric(aout, "heuristic_evals"), m.heuristic_evaluations);
  EXPECT_EQ(m.solution.phases.size(), 3u);
}

/// The BENCH JSON of a one-point spec, run to completion.
std::string bench_json_of(const char* text) {
  std::string err;
  const auto spec = ScenarioSpec::parse(text, &err);
  EXPECT_TRUE(spec.has_value()) << err;
  if (!spec) return "";
  const auto points = spec->expand();
  const auto tasks = build_run_matrix(*spec);
  const auto res = execute_all(tasks, make_run_fn(points), ExecutorOptions{});
  EXPECT_TRUE(res.all_ok()) << res.first_error;
  return to_json(*spec, aggregate(*spec, points, tasks, res));
}

TEST(RunFold, SingleHostPointRecordsNoWorkload) {
  // A single-host mode runs no MapReduce job, so its point names none; a
  // mode=run point keeps its workload.
  EXPECT_EQ(single_host_point("mode=switchcost\nhosts=1\nvms=1\nmb=4\n").workload, "");
  const std::string sysbench = bench_json_of("name=sb\nmode=sysbench\nhosts=1\nvms=1\nmb=4\n");
  EXPECT_NE(sysbench.find("\"label\":\"sysbench v1 4MB (c,c)\""), std::string::npos) << sysbench;
  EXPECT_EQ(sysbench.find("\"workload\""), std::string::npos) << sysbench;
  const std::string run = bench_json_of("name=r\nmode=run\nworkload=sort\nhosts=1\nvms=1\nmb=16\n");
  EXPECT_NE(run.find("\"workload\":\"sort\""), std::string::npos) << run;
}

}  // namespace
}  // namespace iosim::exp
