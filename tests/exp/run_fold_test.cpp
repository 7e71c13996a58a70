// Oracle for the figures folded into specs: a mode=run, seed_mode=repeat
// point must reproduce, run for run, what the hand-written figure binaries
// computed with cluster::run_job / run_job_avg at derive_run_seed(base, i).
// Fig 6, Fig 8 and Table II are judged on these metrics, so a drift between
// the spec path and the cluster runner would silently change the figures.
// Likewise the single-host modes (Fig 1, Fig 5) against
// workloads::run_single_host at the run's raw seed.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cluster/runner.hpp"
#include "exp/aggregate.hpp"
#include "exp/executor.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/random.hpp"
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
    ASSERT_EQ(pa.metrics.size(), 6u);
    for (std::size_t i = 0; i < std::size(want); ++i) {
      EXPECT_EQ(pa.metrics[i].name, want[i].first);
      EXPECT_EQ(pa.metrics[i].s.n, 3u) << want[i].first;
      EXPECT_DOUBLE_EQ(pa.metrics[i].s.mean, want[i].second) << want[i].first;
    }
    EXPECT_EQ(pa.metrics[5].name, "shuffle_tail_pct");
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
