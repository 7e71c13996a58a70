// iosim: materialize one run of a scenario sweep into a simulation.
//
// execute_point is the RunFn body of the experiment engine: it builds a
// private ClusterConfig + JobConf from the scenario point (cluster_of,
// jobs_of and plan_of, the materializer iosimctl's one-point specs share),
// runs either a plain job (mode=run), the full meta-scheduler pipeline over
// one job or a chain (mode=adapt), or the fine-grained controller against
// the same job left alone (mode=finegrained), or runs a single-host
// microbenchmark on workloads::run_single_host (mode=sysbench,
// mode=switchcost), and returns the mode's fixed metric list. It holds no
// state — safe to call concurrently from executor workers.
#pragma once

#include <vector>

#include "cluster/runner.hpp"
#include "core/phase_plan.hpp"
#include "exp/executor.hpp"
#include "exp/scenario.hpp"

namespace iosim::exp {

/// The materializer: the point's cluster (hosts, VMs, pair, fault plan,
/// event budgets and cluster tunables; the executor's abort flag when a
/// worker runs it) seeded with `seed` as given.
cluster::ClusterConfig cluster_of(const ScenarioPoint& point, std::uint64_t seed);

/// The point's jobs at `mb` MB per data node, with its job tunables: one, or
/// the jobs of a `+`-joined chain in order. Empty when a name is not a
/// workload, which only a hand-built point can have (the grammar
/// canonicalizes names).
std::vector<mapred::JobConf> jobs_of(const ScenarioPoint& point);

/// Algorithm 1's phase plan for the point: the paper's merge rule on its
/// first job, unless the point tunes meta.phases.
core::PhasePlan plan_of(const ScenarioPoint& point, const mapred::JobConf& first);

/// Metric names per mode, in emission order (the aggregator and the BENCH
/// JSON preserve this order).
///
/// mode=run:   seconds, ph1_seconds, ph2_seconds, ph3_seconds, ph23_seconds,
///             shuffle_tail_pct (JobStats::shuffle_tail_pct, Table II);
///             then Fig. 3's view of host 0: dom0_mean_mb_s and
///             dom0_max_mb_s (Dom0 read + write MB/s over 1 s iostat
///             windows, max by nearest rank), vm_mean_mb_s and vm_fairness
///             (each VM's guest-layer bytes over the job's seconds, their
///             mean and Jain index); then Fig. 4's prog05_seconds ...
///             prog100_seconds (the time between successive 5 % progress
///             milestones)
/// mode=adapt: adaptive_seconds, default_seconds, best_single_seconds,
///             gain_vs_default_pct, gain_vs_best_pct, heuristic_evals; the
///             run fails when MetaScheduler::optimize fails its adaptive run,
///             as it does past the paper's P x S bound
/// mode=finegrained: seconds (FineGrainedController attached, booted at
///             pair), default_seconds (the same job and seed left at pair),
///             gain_vs_default_pct, switches
/// mode=sysbench: seconds (sysbench seqwr, mb MB per VM, all VMs done)
/// mode=switchcost: seconds (dd, mb MB per VM, T(pair) alone),
///             self_seconds (switched to pair itself at half the data),
///             then to_<xy>_seconds for the 15 other pairs xy in
///             all_scheduler_pairs() order. Cost(a,b) = T(a->b) -
///             (T(a) + T(b))/2 derives from these: `seconds` of the
///             pair=b point is T(b)
/// stream points (stream_text set): seconds (= stream makespan),
///             jobs_completed, jobs_failed, sla_violations, then per class
///             <name>_jobs, <name>_p50_s, <name>_p95_s, <name>_p99_s,
///             <name>_mean_s, <name>_sla_viol
RunOutput execute_point(const ScenarioPoint& point, std::uint64_t seed);

/// RunFn over a fixed expansion (the tasks' point_index selects the point).
RunFn make_run_fn(const std::vector<ScenarioPoint>& points);

}  // namespace iosim::exp
