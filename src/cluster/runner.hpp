// iosim: canonical experiment runner — build a cluster, run one MapReduce
// job (or a chain of them, back to back) on it, return the stats. Every
// bench and the meta-scheduler's search go through these helpers so results
// are comparable.
//
// A chain is the paper's Pig scenario (Section IV-C): job k+1 starts inside
// job k's commit, on the disks, caches and elevator state job k left — a
// pair switched for the tail of one job is still in force at the head of
// the next. Every job keeps the legacy identity (job id 0, no slot arbiter)
// and draws task seed cfg.seed ^ (0x9E3779B97F4A7C15 + k), so a chain of
// one is exactly the single-job run. A job that aborts ends the chain.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mapred/job.hpp"

namespace iosim::cluster {

struct RunResult {
  /// The last job started: the only one of a single-job run, the failed one
  /// of an aborted chain.
  mapred::JobStats stats;
  /// Every job started, in chain order.
  std::vector<mapred::JobStats> jobs;
  double seconds = 0.0;  // first job's start -> last job's end

  /// Set when the job aborted (fault injection exhausted a task's attempt
  /// budget or killed every replica of a block) or the simulator's budget
  /// stopped the event loop before the job finished; `failure` carries the
  /// diagnostic and `seconds` measures start -> abort.
  bool failed = false;
  std::string failure;

  /// Why the event loop returned (sim::StopReason::kDrained for a normal
  /// completion). Anything else means the ClusterConfig budget tripped —
  /// kAborted marks an external (wall-clock watchdog) abort, which callers
  /// may treat as retryable where budget trips are deterministic.
  sim::StopReason stop = sim::StopReason::kDrained;

  /// Phase durations of `stats` with the paper's boundaries.
  double ph1_seconds = 0.0;  // start -> all maps done
  double ph2_seconds = 0.0;  // maps done -> shuffle done
  double ph3_seconds = 0.0;  // shuffle done -> job done
  /// Two-phase view (the paper merges Ph2 into Ph3 at >= ~2 waves).
  double ph23_seconds = 0.0;
};

/// Hook invoked after the Job is constructed but before it runs — used by
/// the adaptive controller to subscribe to phase events, and by probes.
using SetupHook = std::function<void(Cluster&, mapred::Job&)>;

/// Run `confs` back to back on one cluster built from `cfg`. The cluster
/// boots with `cfg.pair`; `setup` runs once per job, before it starts, and
/// may attach observers / controllers.
RunResult run_job(const ClusterConfig& cfg, const std::vector<mapred::JobConf>& confs,
                  const SetupHook& setup = {});
inline RunResult run_job(const ClusterConfig& cfg, const mapred::JobConf& job_conf,
                         const SetupHook& setup = {}) {
  return run_job(cfg, std::vector<mapred::JobConf>{job_conf}, setup);
}

/// Average of `n_seeds` runs (the paper reports the average of three
/// consecutive runs). Run i uses sim::derive_run_seed(cfg.seed, i), so the
/// repeat streams are pairwise independent and averages for adjacent base
/// seeds share no runs. `stats` and `jobs` come from run 0.
RunResult run_job_avg(const ClusterConfig& cfg, const std::vector<mapred::JobConf>& confs,
                      int n_seeds, const SetupHook& setup = {});
inline RunResult run_job_avg(const ClusterConfig& cfg, const mapred::JobConf& job_conf,
                             int n_seeds, const SetupHook& setup = {}) {
  return run_job_avg(cfg, std::vector<mapred::JobConf>{job_conf}, n_seeds, setup);
}

}  // namespace iosim::cluster
