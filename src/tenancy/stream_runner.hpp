// iosim: the multi-tenant stream engine — an open-arrival MapReduce cluster.
//
// StreamRunner runs open arrivals (run_stream): jobs arrive at planned
// times on a live cluster and *contend* — for map/reduce slots through a
// PolicyArbiter (FIFO / Fair / Capacity), for HDFS, and for the shared
// platter underneath every VM. Each job gets a private identity: its own
// task seed (derived from the run seed), its own elevator-context window
// (mapred::ctx::job_window — CFQ's per-process queues and the anticipation
// heuristics key on ctx, so cross-job ctx collisions would merge
// think-time histories), per-job auditor accounts, and per-class sojourn
// sketches for the SLA report. A back-to-back chain needs none of that: it
// is cluster::run_job over a list of jobs.
//
// Determinism: admissions are simulator events at planned times, the plan
// is a pure function of (spec, seed), per-job task streams use
// derive_run_seed(seed, kJobSeedBase + index), and work-conservation kicks
// are coalesced into a single deferred event that re-scans jobs in
// admission order — same seed, byte-identical trace, any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mapred/job.hpp"
#include "tenancy/arrival.hpp"
#include "tenancy/phase_agg.hpp"
#include "tenancy/policy.hpp"
#include "tenancy/stream_spec.hpp"

namespace iosim::tenancy {

/// First derive_run_seed index used for per-job task streams (indices below
/// are reserved: 0 unused, 1 arrivals, 2 job shapes).
inline constexpr std::uint64_t kJobSeedBase = 16;

/// The SLA predicate, factored out so edge cases are testable in isolation:
/// a deadline of 0 disables the check, and a sojourn *exactly equal* to the
/// deadline is NOT a violation (strict >). Failed jobs with a deadline
/// always violate.
inline bool sla_violated(bool failed, double sojourn_s, double deadline_s) {
  return deadline_s > 0.0 && (failed || sojourn_s > deadline_s);
}

/// One job's outcome in the stream.
struct StreamJobRecord {
  /// Stream job id: the plan index, except that a retried job gets a fresh
  /// id (plan size + retry sequence) so its elevator-context window and
  /// auditor account never collide with the aborted attempt's.
  int job_id = 0;
  int class_index = 0;
  int size_mb = 0;
  double t_arrive_s = 0.0;
  double t_done_s = 0.0;
  /// Arrival -> completion (the SLA metric). 0 until the job finishes.
  double sojourn_s = 0.0;
  bool completed = false;
  bool failed = false;
  bool sla_violated = false;
  /// Rejected by the admission gate before ever running (overload shed;
  /// never counted as failed or as an SLA violation).
  bool shed = false;
  /// Re-admissions consumed after an attempt died with its host.
  int retries = 0;
};

/// Per-class aggregate over the stream's completed jobs.
struct ClassOutcome {
  std::string name;
  int jobs = 0;
  int completed = 0;
  int failed = 0;
  int shed = 0;
  int sla_violations = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
};

struct StreamResult {
  /// False only on infrastructure failure (event budget tripped with jobs
  /// still unfinished). Individual job aborts keep ok=true, mirroring how
  /// fault runs report.
  bool ok = true;
  std::string error;
  sim::StopReason stop = sim::StopReason::kDrained;
  /// First arrival -> last completion (wall time of the whole stream).
  double makespan_s = 0.0;
  int jobs_completed = 0;
  int jobs_failed = 0;
  int sla_violations = 0;
  /// Overload protection and self-healing counters (all zero on an
  /// unbounded, fault-free stream).
  int jobs_shed = 0;
  int jobs_retried = 0;
  long long blocks_repaired = 0;
  long long blocks_lost = 0;
  double repair_mb = 0.0;
  std::vector<StreamJobRecord> jobs;
  std::vector<ClassOutcome> classes;
};

/// Per-job hook, invoked after construction and identity setup, before
/// run(): (cluster, job, stream index).
using StreamSetupHook = std::function<void(cluster::Cluster&, mapred::Job&, int)>;

/// Run the open-arrival stream described by `spec` on a cluster built from
/// `cfg`. The plan (arrival times, classes, sizes) derives from cfg.seed.
StreamResult run_stream(const cluster::ClusterConfig& cfg, const StreamSpec& spec,
                        const StreamSetupHook& setup = {});

/// The sequencing engine itself — exposed for tests and benchmarks that
/// need custom plans.
class StreamRunner {
 public:
  struct PlannedEntry {
    double t_arrive_s = 0.0;
    mapred::JobConf conf;
    std::uint64_t seed = 0;
    int class_index = 0;
    int size_mb = 0;
    double deadline_s = 0.0;
  };

  struct Options {
    Policy policy = Policy::kFifo;
    /// Class attributes for the arbiter / SLA report.
    std::vector<ClassSpec> classes;
    StreamSetupHook setup;
    /// Overload protection (StreamSpec's admit segment). max_active == 0
    /// disables the gate; every arrival is admitted immediately.
    int max_active = 0;
    int max_queue = 0;
    /// Re-admissions for jobs whose abort traces to a declared-dead host.
    int job_retries = 0;
    double retry_backoff_s = 5.0;
  };

  StreamRunner(cluster::Cluster& cl, std::vector<PlannedEntry> plan, Options opts);
  ~StreamRunner();
  StreamRunner(const StreamRunner&) = delete;
  StreamRunner& operator=(const StreamRunner&) = delete;

  /// Schedule every admission. The caller then drives cl.simr().run().
  void start();

  /// Collect results and run end-of-run verification. Call once, after the
  /// simulator returned.
  StreamResult finish();

  const mapred::JobStats& job_stats(int index) const;

 private:
  void arrive(int index);
  void admit(int index);
  void shed_worst_waiting();
  void pump_admissions();
  void on_job_finished(int index, bool failed);
  void schedule_kick();
  bool gate_enabled() const { return opts_.max_active > 0; }
  int class_priority(int class_index) const;

  cluster::Cluster& cl_;
  std::vector<PlannedEntry> plan_;
  Options opts_;
  std::unique_ptr<PolicyArbiter> arbiter_;
  PhaseAggregator phases_;
  std::vector<std::unique_ptr<mapred::Job>> jobs_;  // indexed like plan_
  /// Aborted attempts superseded by a retry. Membership and fault callbacks
  /// capture raw Job pointers, so superseded objects must outlive the run.
  std::vector<std::unique_ptr<mapred::Job>> superseded_jobs_;
  std::vector<StreamJobRecord> records_;
  std::vector<mapred::JobStats> stats_;
  std::vector<int> waiting_;  // plan indices queued behind the gate
  bool kick_pending_ = false;
  int unfinished_ = 0;
  int active_ = 0;      // jobs admitted and not yet finished
  int retry_seq_ = 0;   // fresh job_ids for retried attempts
  bool started_ = false;
};

}  // namespace iosim::tenancy
