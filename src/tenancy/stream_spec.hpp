// iosim: the job-stream specification — multi-tenant workload grammar.
//
// A StreamSpec describes an open-arrival MapReduce workload: how jobs
// arrive (deterministic Poisson process or an explicit arrival trace), what
// classes of jobs the stream mixes (each class names a workload model, an
// input-size range with heavy-tailed sampling, and its scheduling
// attributes: FIFO priority, fair-share weight, capacity share, SLA
// deadline), and which JobTracker slot-allocation policy arbitrates the
// cluster's map/reduce slots between co-running jobs.
//
// The grammar is a single line so it embeds as one `stream=` value in an
// exp::ScenarioSpec: segments separated by ';', fields by ','. The first
// field of a segment selects its kind:
//
//   arrive,poisson,rate=0.02,jobs=8      open arrivals, rate in jobs/sec
//   arrive,trace,t=0:5.5:30              explicit arrival times (seconds)
//   class,name=batch,wl=sort,mb=16-64[,weight=1][,prio=0][,share=0]
//        [,deadline=0][,mix=1][,alpha=1.5]
//   policy,fifo|fair|capacity
//   admit,active=4,queue=8[,retries=1][,backoff=5]
//        overload protection: at most `active` jobs running concurrently,
//        at most `queue` waiting for admission; arrivals beyond both shed
//        the lowest-priority waiting job. `retries` re-admits jobs that
//        failed because their host was declared dead, after `backoff`
//        seconds.
//   meta,policy=static|offline|ucb|egreedy[,explore=][,decay=][,budget=]
//        [,pair=][,profile=]
//        pair-selection policy for the run (core/online_scheduler.hpp):
//        `static` pins the boot pair for the whole stream (`pair=` overrides
//        the scenario's boot pair — the static-arm baseline); `offline` runs
//        the paper's Algorithm 1 once on a side cluster (profiling the class
//        named by `profile=`, default the first class) and replays the
//        resulting per-phase schedule at cluster-phase changes; `ucb` /
//        `egreedy` learn pair quality online from live throughput (UCB1 /
//        epsilon-greedy-with-aging; `explore` is the UCB width or initial
//        epsilon, `decay` the estimate-aging factor, `budget` the per-phase
//        exploration budget in distinct arms). No meta segment means no
//        controller at all — byte-identical to the pre-meta stream engine.
//
// Parsing is all-or-nothing with diagnostics (the fuzz contract shared
// with ScenarioSpec and FaultPlan) under the lexer rules of sim/text.hpp:
// numbers are finite, integers are whole tokens, a key repeated within a
// segment is an error, and nothing is trimmed. to_string() renders the
// canonical form: parse(s.to_string()) reproduces to_string() byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace iosim::tenancy {

/// One tenant class: jobs of this class share a workload shape and the
/// scheduling attributes the policies read.
struct ClassSpec {
  std::string name;
  /// Workload model, canonical workloads::by_name key.
  std::string workload = "sort";
  /// Input size per data node, sampled per job from [mb_min, mb_max] MiB
  /// with a bounded-Pareto tail (heavy-tailed job sizes; alpha is the tail
  /// index, smaller = heavier). mb_min == mb_max pins the size.
  int mb_min = 16;
  int mb_max = 16;
  double alpha = 1.5;
  /// Fair policy: relative share weight (> 0).
  double weight = 1.0;
  /// FIFO policy: higher priority schedules first (ties by arrival).
  int priority = 0;
  /// Capacity policy: guaranteed fraction of cluster slots. All-zero
  /// shares mean equal split across classes.
  double share = 0.0;
  /// SLA deadline on job sojourn time (arrival -> completion), seconds;
  /// 0 = no deadline.
  double deadline_s = 0.0;
  /// Arrival mix weight: probability mass of this class when drawing the
  /// class of the next arriving job (> 0).
  double mix = 1.0;
};

enum class ArrivalKind : std::uint8_t { kPoisson = 0, kTrace };
enum class Policy : std::uint8_t { kFifo = 0, kFair, kCapacity };

const char* to_string(Policy p);
std::optional<Policy> policy_by_name(const std::string& name);

/// Pair-selection policy for a run (the `meta` segment). kNone means "no
/// controller": the grammar and the runtime behave exactly as before the
/// segment existed. The tenancy layer only carries the parsed data — the
/// controllers themselves live in core/online_scheduler.hpp (core links
/// tenancy, never the reverse).
enum class MetaPolicy : std::uint8_t { kNone = 0, kStatic, kOffline, kUcb, kEgreedy };

const char* to_string(MetaPolicy p);
std::optional<MetaPolicy> meta_policy_by_name(const std::string& name);

struct MetaSpec {
  MetaPolicy policy = MetaPolicy::kNone;
  /// Exploration strength: UCB confidence width, or the initial epsilon of
  /// epsilon-greedy. < 0 means "policy default".
  double explore = -1.0;
  /// Aging factor in (0, 1]: epsilon decay per pull (egreedy) and the
  /// estimate discount applied on fault/membership events (both policies).
  /// < 0 means "policy default".
  double decay = -1.0;
  /// Per-phase exploration budget: at most this many distinct arms are
  /// force-explored per cluster phase. 0 means "policy default".
  int budget = 0;
  /// static only: two-letter boot-pair override (e.g. "ad"); empty keeps
  /// the scenario's pair axis.
  std::string pair;
  /// offline only: name of the class to profile; empty profiles the first
  /// class. A profile that names a minority class models a stale/unseen
  /// profiling corpus.
  std::string profile;

  bool enabled() const { return policy != MetaPolicy::kNone; }
};

struct StreamSpec {
  ArrivalKind arrival = ArrivalKind::kPoisson;
  /// Poisson arrival rate, jobs per second (> 0).
  double rate_hz = 0.01;
  /// Poisson: number of jobs to admit.
  int n_jobs = 4;
  /// Trace arrivals: sorted arrival times in seconds (one job each).
  std::vector<double> trace_times_s;
  std::vector<ClassSpec> classes;
  Policy policy = Policy::kFifo;

  /// Overload protection (the `admit` segment). max_active == 0 disables
  /// the admission gate entirely (every arrival is admitted immediately,
  /// the historical behaviour).
  int max_active = 0;
  /// Bound on the waiting queue once the gate is full; an arrival beyond
  /// both bounds sheds the lowest-priority (tie: newest) waiting job.
  int max_queue = 0;
  /// Re-admissions granted to a job that failed because the VM hosting it
  /// was declared dead (not for ordinary task-attempt exhaustion).
  int job_retries = 0;
  /// Delay before such a re-admission, seconds.
  double retry_backoff_s = 5.0;

  /// Pair-selection policy (the `meta` segment); MetaPolicy::kNone when the
  /// stream has no meta segment.
  MetaSpec meta;

  int job_count() const {
    return arrival == ArrivalKind::kTrace ? static_cast<int>(trace_times_s.size())
                                          : n_jobs;
  }

  /// All-or-nothing parse of the single-line grammar above. nullopt on any
  /// error; `err` (optional) receives the diagnostic.
  static std::optional<StreamSpec> parse(const std::string& text,
                                         std::string* err = nullptr);

  /// Canonical single-line rendering (round-trips through parse()).
  std::string to_string() const;
};

}  // namespace iosim::tenancy
