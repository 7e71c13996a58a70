// iosim: the meta-scheduler — the paper's primary contribution.
//
// Given an application and a cluster, it (1) profiles the job once per
// candidate pair to obtain per-phase scores (the paper's Fig. 6 data),
// (2) runs Algorithm 1: phase by phase, walk the pairs in descending
// per-phase quality and keep probing the next-best candidate with a *full
// execution* — prefix fixed to the already-chosen pairs, suffix fixed to
// the best single pair for all remaining phases (the paper's S_{i+1}, which
// keeps the comparison fair under non-uniform switch costs) — until the
// next candidate stops improving, and (3) encodes "same pair as the
// previous phase" as a 0 / no-switch entry.
//
// The search issues at most P x S executions (the paper's bound); in
// practice far fewer thanks to early termination and memoization.
#pragma once

#include <string>
#include <vector>

#include "cluster/runner.hpp"
#include "core/pair_schedule.hpp"
#include "core/phase_plan.hpp"

namespace iosim::core {

/// One profiling run's outcome for a single pair.
struct ProfileEntry {
  SchedulerPair pair;
  double total_seconds = 0.0;
  std::vector<double> phase_seconds;  // size = plan.count()
};

struct MetaSchedulerOptions {
  PhasePlan plan;
  /// Seeds averaged per execution (the paper averages 3 runs; 1 keeps the
  /// search cheap and the simulator is deterministic anyway).
  int seeds_per_eval = 1;
};

struct MetaResult {
  PairSchedule solution;
  /// The full run with `solution`: Algorithm 1's own execution of it, or
  /// the fallback's run of the best single pair.
  double adaptive_seconds = 0.0;
  cluster::RunResult adaptive_run;

  double default_seconds = 0.0;       // (cfq, cfq) single pair
  double best_single_seconds = 0.0;
  SchedulerPair best_single;

  std::vector<ProfileEntry> profile;  // all 16 single-pair runs
  int heuristic_evaluations = 0;      // full runs beyond profiling
  /// True when the multi-pair solution lost to the best single pair and the
  /// fallback replaced it.
  bool fell_back = false;

  double improvement_vs_default() const {
    return default_seconds > 0 ? 1.0 - adaptive_seconds / default_seconds : 0.0;
  }
  double improvement_vs_best_single() const {
    return best_single_seconds > 0 ? 1.0 - adaptive_seconds / best_single_seconds : 0.0;
  }
};

/// An abstract experiment the heuristic can optimize: something that can be
/// run once per fixed pair (profiling) and once per arbitrary schedule
/// (evaluation). make_chain_experiment builds the paper's single-job case
/// and the Pig-style chain (Section IV-C) alike.
struct Experiment {
  int phases = 2;
  std::function<ProfileEntry(iosched::SchedulerPair)> profile;
  std::function<cluster::RunResult(const PairSchedule&)> execute;
};

class MetaScheduler {
 public:
  /// The paper's experiment: one MapReduce job on one cluster, a chain of
  /// one under `opts.plan`.
  MetaScheduler(cluster::ClusterConfig cluster_cfg, mapred::JobConf job_conf,
                MetaSchedulerOptions opts);

  /// A custom experiment (e.g. a job chain). It carries its own phase
  /// count and seeds, so `opts` sets nothing here.
  MetaScheduler(Experiment experiment, MetaSchedulerOptions opts);

  /// Full pipeline: profile -> Algorithm 1, whose own execution of the
  /// solution is the adaptive run (the fallback runs the best single pair
  /// once more).
  MetaResult optimize();

  /// Execute the experiment under `schedule` (adaptive switching applied);
  /// exposed for benches that evaluate hand-built schedules.
  cluster::RunResult execute(const PairSchedule& schedule) const;

  /// Profiling only (Fig. 6 data).
  std::vector<ProfileEntry> profile_all_pairs() const;

 private:
  /// One full execution Algorithm 1 issued, by schedule key.
  struct Evaluation {
    std::string key;
    cluster::RunResult run;
  };
  /// The run of `schedule`: from `cache`, or executed once and added to
  /// it. The reference lasts until the next call adds to `cache`.
  const cluster::RunResult& evaluate(const PairSchedule& schedule,
                                     std::vector<Evaluation>& cache) const;
  /// One profiling run: advances the meta clock, emits the trace/metrics
  /// record.
  ProfileEntry profile_one(iosched::SchedulerPair p) const;

  Experiment exp_;
  /// Profiling/probe runs each spin up a private simulator, so there is no
  /// shared sim clock to stamp trace events with. Instead the search keeps
  /// its own clock: the accumulated simulated seconds of every run issued so
  /// far. Decision instants land on the "meta" track in that timebase.
  mutable sim::Time meta_clock_ = sim::Time::zero();
};

/// Build the chain experiment: `confs` run back to back on one cluster
/// (cluster::run_job over the list), `plan.count()` phases per job, with
/// adaptive switches at every job start and phase boundary after the first
/// — one AdaptiveController per run, so the switches share the fault layer
/// and retry of every other controller. The paper's single-job experiment
/// is the chain of one under that job's plan.
Experiment make_chain_experiment(cluster::ClusterConfig cfg,
                                 std::vector<mapred::JobConf> confs,
                                 int seeds_per_eval = 1, PhasePlan plan = {});

}  // namespace iosim::core
