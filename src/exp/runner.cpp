#include "exp/runner.hpp"

#include "core/fine_grained.hpp"
#include "core/meta_scheduler.hpp"
#include "core/online_scheduler.hpp"
#include "sim/text.hpp"
#include "tenancy/stream_runner.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/microbench.hpp"

namespace iosim::exp {

namespace {

/// Progress sentinel: spec budgets bound a livelocked event loop
/// deterministically, and the executor's watchdog (when armed) reaches the
/// loop through the per-run abort flag.
sim::SimBudget budget_of(const ScenarioPoint& pt) {
  sim::SimBudget b;
  b.max_events = pt.max_events;
  if (pt.max_sim_seconds > 0) b.max_sim_time = sim::Time::from_sec_f(pt.max_sim_seconds);
  b.abort = current_run_abort();
  return b;
}

/// Failure bookkeeping shared by both modes: a watchdog abort is an infra
/// failure (retryable); budget trips and job aborts are deterministic.
void note_run_failure(RunOutput* out, const cluster::RunResult& r) {
  out->ok = false;
  out->error = r.failure;
  out->infra_failure = (r.stop == sim::StopReason::kAborted);
  out->budget_stop = (r.stop == sim::StopReason::kEventBudget ||
                      r.stop == sim::StopReason::kTimeBudget);
}

/// mode=sysbench and mode=switchcost: sysbench seqwr or dd runs on one
/// host, every one seeded with the run's seed. Stops at the first run a
/// budget cut short.
RunOutput execute_single_host(const ScenarioPoint& pt, std::uint64_t seed) {
  RunOutput out;
  const std::int64_t bytes = pt.mb * mapred::kMiB;
  const sim::SimBudget budget = budget_of(pt);
  const auto run = [&](const std::string& name, const workloads::SeqWriteParams& p,
                       std::optional<iosched::SchedulerPair> to) {
    const auto r = workloads::run_single_host({}, pt.pair, pt.vms, seed, p, to, budget);
    if (r.stop != sim::StopReason::kDrained) {
      out.ok = false;
      out.error = name + " stopped early: " + sim::to_string(r.stop);
      out.infra_failure = (r.stop == sim::StopReason::kAborted);
      out.budget_stop = !out.infra_failure;
      return false;
    }
    out.metrics.emplace_back(name, r.elapsed.sec());
    return true;
  };
  if (pt.mode == RunMode::kSysbench) {
    workloads::SeqWriteParams p;  // sysbench seqwr defaults
    p.bytes_per_vm = bytes;
    run("seconds", p, std::nullopt);
    return out;
  }
  const auto p = workloads::dd_params(bytes);
  if (!run("seconds", p, std::nullopt) || !run("self_seconds", p, pt.pair)) return out;
  for (const auto& to : iosched::all_scheduler_pairs()) {
    if (to == pt.pair) continue;
    if (!run("to_" + to.letters() + "_seconds", p, to)) return out;
  }
  return out;
}

}  // namespace

cluster::ClusterConfig cluster_of(const ScenarioPoint& pt, std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = pt.hosts;
  cfg.vms_per_host = pt.vms;
  cfg.pair = pt.pair;
  cfg.faults = pt.faults;
  cfg.seed = seed;
  cfg.budget = budget_of(pt);
  pt.tune.apply(cfg, &Tunable::cluster);
  return cfg;
}

std::vector<mapred::JobConf> jobs_of(const ScenarioPoint& pt) {
  std::vector<mapred::JobConf> confs;
  for (const std::string_view name : lex::split(pt.workload, '+')) {
    const auto model = workloads::by_name(std::string(name));
    if (!model) return {};
    confs.push_back(workloads::make_job(*model, pt.mb * mapred::kMiB));
    pt.tune.apply(confs.back(), &Tunable::job);
  }
  return confs;
}

core::PhasePlan plan_of(const ScenarioPoint& pt, const mapred::JobConf& first) {
  core::PhasePlan plan = core::PhasePlan::for_job(first, pt.hosts * pt.vms);
  pt.tune.apply(plan, &Tunable::plan);
  return plan;
}

RunOutput execute_point(const ScenarioPoint& pt, std::uint64_t seed) {
  if (is_single_host(pt.mode)) {
    return execute_single_host(pt, seed);
  }
  RunOutput out;
  // One job, or the jobs of a `+`-joined chain (mode=adapt only).
  const std::vector<mapred::JobConf> confs = jobs_of(pt);
  if (confs.empty()) {
    out.ok = false;
    out.error = "unknown workload '" + pt.workload + "'";
    return out;
  }
  const mapred::JobConf& jc = confs.front();
  const auto cfg = cluster_of(pt, seed);

  if (!pt.stream_text.empty()) {
    // Multi-job stream point: the stream's classes define the workloads and
    // sizes, so the point's workload/mb axes are inert here. Metric order is
    // fixed: headline numbers, then per-class sojourn quantiles — `seconds`
    // is the stream makespan so mixed sweeps share one table column.
    // The policy dispatcher runs every stream (no meta segment: the plain
    // stream); a meta segment's controller counters append *after* the
    // class metrics so meta-free streams keep their exact metric layout.
    const core::MetaStreamResult meta = core::run_stream_with_policy(cfg, pt.stream);
    const tenancy::StreamResult& r = meta.stream;
    if (!r.ok) {
      out.ok = false;
      out.error = r.error;
      out.infra_failure = (r.stop == sim::StopReason::kAborted);
      out.budget_stop = (r.stop == sim::StopReason::kEventBudget ||
                         r.stop == sim::StopReason::kTimeBudget);
    }
    out.metrics = {{"seconds", r.makespan_s},
                   {"jobs_completed", static_cast<double>(r.jobs_completed)},
                   {"jobs_failed", static_cast<double>(r.jobs_failed)},
                   {"sla_violations", static_cast<double>(r.sla_violations)},
                   {"jobs_shed", static_cast<double>(r.jobs_shed)},
                   {"jobs_retried", static_cast<double>(r.jobs_retried)},
                   {"repair_mb", r.repair_mb}};
    for (const auto& c : r.classes) {
      out.metrics.push_back({c.name + "_jobs", static_cast<double>(c.jobs)});
      out.metrics.push_back({c.name + "_p50_s", c.p50_s});
      out.metrics.push_back({c.name + "_p95_s", c.p95_s});
      out.metrics.push_back({c.name + "_p99_s", c.p99_s});
      out.metrics.push_back({c.name + "_mean_s", c.mean_s});
      out.metrics.push_back(
          {c.name + "_sla_viol", static_cast<double>(c.sla_violations)});
      out.metrics.push_back({c.name + "_failed", static_cast<double>(c.failed)});
      out.metrics.push_back({c.name + "_shed", static_cast<double>(c.shed)});
    }
    if (pt.stream.meta.enabled()) {
      out.metrics.push_back(
          {"meta_pulls", static_cast<double>(meta.arm_pulls)});
      out.metrics.push_back(
          {"meta_switches", static_cast<double>(meta.arm_switches)});
      out.metrics.push_back(
          {"meta_switch_failures", static_cast<double>(meta.switch_failures)});
      out.metrics.push_back({"meta_decays", static_cast<double>(meta.decays)});
      out.metrics.push_back(
          {"meta_profile_runs", static_cast<double>(meta.profile_runs)});
    }
    return out;
  }

  if (pt.mode == RunMode::kRun) {
    const cluster::RunResult r = cluster::run_job(cfg, jc);
    if (r.failed) note_run_failure(&out, r);
    out.metrics = {{"seconds", r.seconds},
                   {"ph1_seconds", r.ph1_seconds},
                   {"ph2_seconds", r.ph2_seconds},
                   {"ph3_seconds", r.ph3_seconds},
                   {"ph23_seconds", r.ph23_seconds},
                   {"shuffle_tail_pct", r.stats.shuffle_tail_pct()}};
    return out;
  }

  if (pt.mode == RunMode::kFinegrained) {
    // Per-host online control (paper Section VII) from the boot pair, against
    // the same job left at that pair; no profiling runs.
    std::shared_ptr<core::FineGrainedController> ctl;
    const cluster::RunResult fine =
        cluster::run_job(cfg, jc, [&ctl](cluster::Cluster& cl, mapred::Job& job) {
          ctl = core::FineGrainedController::attach(cl, job);
        });
    const cluster::RunResult def = cluster::run_job(cfg, jc);
    if (fine.failed || def.failed) note_run_failure(&out, fine.failed ? fine : def);
    out.metrics = {{"seconds", fine.seconds},
                   {"default_seconds", def.seconds},
                   {"gain_vs_default_pct", 100.0 * (1.0 - fine.seconds / def.seconds)},
                   {"switches", static_cast<double>(ctl->total_switches())}};
    return out;
  }

  // mode=adapt: the full pipeline — profile all 16 pairs, Algorithm 1,
  // final adaptive run — exactly what the Fig. 7 specs measure. A chain
  // (the paper's Pig scenario, Section IV-C) takes its first job's phase
  // plan for every job.
  core::MetaScheduler ms(
      core::make_chain_experiment(cfg, confs, /*seeds_per_eval=*/1, plan_of(pt, jc)),
      core::MetaSchedulerOptions{});
  const core::MetaResult r = ms.optimize();
  if (r.adaptive_run.failed) note_run_failure(&out, r.adaptive_run);
  out.metrics = {{"adaptive_seconds", r.adaptive_seconds},
                 {"default_seconds", r.default_seconds},
                 {"best_single_seconds", r.best_single_seconds},
                 {"gain_vs_default_pct", 100.0 * r.improvement_vs_default()},
                 {"gain_vs_best_pct", 100.0 * r.improvement_vs_best_single()},
                 {"heuristic_evals", static_cast<double>(r.heuristic_evaluations)}};
  return out;
}

RunFn make_run_fn(const std::vector<ScenarioPoint>& points) {
  return [&points](const RunTask& task) {
    return execute_point(points[task.point_index], task.seed);
  };
}

}  // namespace iosim::exp
