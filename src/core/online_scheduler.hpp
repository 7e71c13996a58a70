// iosim: the online meta-scheduler — a switch-cost-aware multi-armed bandit
// over (Dom0, DomU) SchedulerPair arms that replaces the offline profiling
// pass (DESIGN.md §14).
//
// The paper's Algorithm 1 needs a profiling corpus measured before the run;
// in an open-arrival, fault-degraded stream that corpus goes stale the
// moment the mix shifts or a VM is blacklisted. The OnlineScheduler instead
// learns pair quality *during* the run:
//
//   arms      the 16 scheduler pairs, one bandit table per cluster phase
//             kind (map / shuffle / reduce — the PhaseAggregator's modal
//             phase over the stream's live jobs).
//   reward    cluster-wide disk throughput normalized by disk *busy* time
//             (MB per Dom0-busy-second) over the window since the previous
//             phase change, from the always-on Dom0 byte and busy-time
//             counters. Busy-normalizing matters: wall-clock MB/s is
//             demand-limited — a fast arm drains the backlog and idles the
//             disks (low MB/s), while a slow arm keeps them saturated (high
//             MB/s), inverting the ranking. MB per busy second measures
//             elevator efficiency independent of arrival lulls. The reward
//             is credited to the pair actually installed during the window
//             (a failed switch credits the old pair: the estimate tracks
//             reality, not intent).
//   pulls     at every cluster-phase change the policy picks the arm for
//             the new phase; a different arm than the installed one issues
//             a cluster-wide switch through the PairController base (same
//             retry/supersede semantics as the offline controllers).
//   switch    candidate arms are discounted by the predicted switch cost
//   cost      (kSwitchCostSeconds, one cluster quiesce), amortized
//             over the expected phase duration and converted to reward
//             units — a marginally-better arm does not justify a 2 s
//             cluster quiesce near a phase boundary.
//   budget    per phase kind, at most `budget` distinct arms are explored
//             (a deterministic, seed-shuffled subset plus the boot pair);
//             a 16-arm sweep per phase would cost more than profiling did.
//   decay     fault/membership events (a VM declared dead or blacklisted)
//             age every estimate: effective pull counts shrink by `decay`,
//             so confidence bounds widen and the bandit re-explores the
//             post-fault reality instead of trusting pre-fault scores.
//
// Two policies implement the OnlinePolicy interface: UCB1 and epsilon-
// greedy-with-aging. Selection comes from the stream grammar's meta segment
// (`meta,policy=ucb|egreedy[,explore=,decay=,budget=]`) or a scenario's
// `meta =` axis; `meta,policy=offline` replays Algorithm 1's schedule
// (profiled once on a side cluster) and `meta,policy=static` pins a pair —
// the baselines the policy-compare CI gate measures against.
//
// Determinism: every decision happens synchronously inside job callbacks,
// the only randomness is a seeded xoshiro stream, and rewards derive from
// simulated byte counters — same seed + same spec is byte-identical traces,
// with the online controller on (guarded by online_scheduler_test).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/pair_controller.hpp"
#include "core/pair_schedule.hpp"
#include "core/phase_plan.hpp"
#include "sim/random.hpp"
#include "trace/trace.hpp"
#include "tenancy/stream_runner.hpp"
#include "tenancy/stream_spec.hpp"

namespace iosim::core {

/// Cluster phase kinds the bandit keys its tables on (PhaseAggregator's
/// domain): 0 = map, 1 = shuffle, 2 = reduce.
inline constexpr int kPhaseKinds = 3;

struct OnlineConfig {
  /// kUcb or kEgreedy (the other values never reach the policy layer).
  tenancy::MetaPolicy kind = tenancy::MetaPolicy::kUcb;
  /// UCB confidence width / initial epsilon. < 0 picks the policy default
  /// (0.5 for UCB, 0.25 for egreedy).
  double explore = -1.0;
  /// Aging factor in (0, 1]: epsilon decay per pull (egreedy) and the
  /// pull-count discount applied by decay_all on fault/membership events.
  /// < 0 picks the policy default (0.5 for UCB, 0.9 for egreedy).
  double decay = -1.0;
  /// Per-phase exploration budget in distinct arms; 0 picks the default (4).
  int budget = 0;
  /// Seed for the exploration order and the egreedy coin.
  std::uint64_t seed = 1;

  static OnlineConfig from_meta(const tenancy::MetaSpec& m, std::uint64_t seed) {
    OnlineConfig c;
    c.kind = m.policy;
    c.explore = m.explore;
    c.decay = m.decay;
    c.budget = m.budget;
    c.seed = seed;
    return c;
  }
};

/// Reward statistics of one (phase kind, arm) cell. `pulls` is fractional:
/// decay_all scales it down to widen confidence bounds after a fault.
struct ArmStats {
  double pulls = 0.0;
  double value = 0.0;  // reward estimate, MB per disk-busy-second
};

/// Common interface of the bandit policies. Implementations own the
/// (phase kind x 16 arm) estimate tables; the OnlineScheduler owns reward
/// measurement, switch execution, and telemetry.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;
  virtual const char* name() const = 0;
  /// Pick the arm for `phase`. `current_arm` is the installed pair's dense
  /// index; `switch_penalty[a]` is the predicted cost of moving to arm `a`
  /// expressed in reward units (0 for the current arm).
  virtual int select(int phase, int current_arm,
                     const std::array<double, iosched::kNumSchedulerPairs>&
                         switch_penalty) = 0;
  /// Credit `mb_per_busy_s` (MB per disk-busy-second) to (phase, arm).
  virtual void reward(int phase, int arm, double mb_per_busy_s) = 0;
  /// Age every estimate (fault/membership event): pull counts scale by
  /// `factor`, so both policies re-explore.
  virtual void decay_all(double factor) = 0;
  virtual const ArmStats& stats(int phase, int arm) const = 0;
};

/// Factory for the policy named in `cfg.kind` (kUcb / kEgreedy).
std::unique_ptr<OnlinePolicy> make_online_policy(const OnlineConfig& cfg);

/// The shared learning state plus its runtime wiring. One instance serves a
/// whole run: concurrent stream jobs all feed the same tables (attach each
/// via attach_stream_job from a StreamSetupHook).
class OnlineScheduler : public PairController {
 public:
  static std::shared_ptr<OnlineScheduler> create(cluster::Cluster& cl,
                                                 OnlineConfig cfg);

  int pulls() const { return pulls_; }
  int arm_switches() const { return switches_performed(); }
  int decays() const { return decays_; }
  const OnlinePolicy& policy() const { return *policy_; }

 private:
  OnlineScheduler(cluster::Cluster& cl, OnlineConfig cfg);

  /// The bandit step at a cluster phase change: close the reward window,
  /// credit the installed arm, pull, and switch if the policy picked a
  /// different arm.
  void enter_phase(int kind, sim::Time t) override;
  /// Opens the phase-0 reward window with the first job and keeps the
  /// periodic re-pull armed while jobs are live.
  void stream_job_admitted() override;
  /// Meta-track telemetry: tt_arm_switch / switch_fail instants and the
  /// meta.arm_switches counter.
  void on_switched(int kind, iosched::SchedulerPair target) override;
  void on_switch_failed(int kind, int attempt) override;
  /// Age every estimate now (membership events).
  void on_fault_event(sim::Time t);

  void close_window(sim::Time now);
  void pull(sim::Time t);
  void ensure_ticking();
  std::int64_t cluster_bytes() const;
  std::uint64_t cluster_busy_ns() const;

  double event_decay_;  // resolved decay factor for on_fault_event
  std::unique_ptr<OnlinePolicy> policy_;

  int cur_kind_ = -1;
  sim::Time win_start_ = sim::Time::zero();
  std::int64_t win_bytes_ = 0;
  std::uint64_t win_busy_ns_ = 0;
  /// When the first reward window opened. The switch-cost amortization
  /// horizon grows with elapsed run time: an arm adopted now is held for
  /// (roughly) the rest of the run, so a fixed quiesce cost matters less
  /// and less as the stream progresses.
  sim::Time run_start_ = sim::Time::zero();
  /// EWMA of observed phase-window durations, the amortization horizon for
  /// the switch-cost discount (seeded pessimistically short so early pulls
  /// are switch-shy).
  double horizon_s_ = 10.0;
  /// Running mean reward, the scale that converts predicted switch seconds
  /// into reward units.
  double mean_reward_ = 0.0;
  int reward_samples_ = 0;

  int pulls_ = 0;
  int decays_ = 0;
  /// Periodic mid-phase re-pull is armed while stream jobs are live.
  bool ticking_ = false;
  /// The next close_window discards its sample: it contains a switch
  /// quiesce, which would bias estimates against explored arms.
  bool skip_next_reward_ = false;
  /// When the last switch landed (dwell gate: hold an arm long enough to
  /// measure it before reconsidering).
  sim::Time last_switch_ = sim::Time::zero();
  /// Lazily interned-and-pinned instant names (0 = not yet interned).
  trace::Str tt_arm_pull_ = 0;
  trace::Str tt_arm_switch_ = 0;
};

/// Replays a precomputed PairSchedule at *cluster* phase changes — the
/// offline greedy (or any hand-built schedule) deployed on an open-arrival
/// stream, where per-job AdaptiveControllers would fight each other. Unlike
/// AdaptiveController it resolves "0" entries and skips the pair already
/// installed.
class SchedulePlayer : public PairController {
 public:
  static std::shared_ptr<SchedulePlayer> create(cluster::Cluster& cl,
                                                PairSchedule schedule,
                                                PhasePlan plan);

 private:
  SchedulePlayer(cluster::Cluster& cl, PairSchedule schedule);

  void enter_phase(int kind, sim::Time t) override;

  PairSchedule schedule_;
};

/// Outcome of a policy-driven stream run (exp::execute_point and the tests
/// read the controller counters next to the stream result).
struct MetaStreamResult {
  tenancy::StreamResult stream;
  /// Bandit telemetry (zero for static/offline/none).
  int arm_pulls = 0;
  int arm_switches = 0;
  int switch_failures = 0;
  int decays = 0;
  /// Offline-pipeline telemetry (zero for the other policies).
  int profile_runs = 0;
  int heuristic_evals = 0;
  /// The pair the stream cluster actually booted with (after any static
  /// override or offline phase-0 choice), two-letter code.
  std::string boot_pair;
  /// Offline: the chosen schedule's key ("cc>ad>0" style), else empty.
  std::string schedule_key;
};

/// Run `spec` on a cluster built from `cfg`, honouring spec.meta:
///   kNone / kStatic   plain run_stream (static may override cfg.pair)
///   kOffline          profile + Algorithm 1 on a side cluster (the class
///                     named by meta.profile, default the first class;
///                     sizes pinned to the class midpoint), then replay the
///                     schedule at cluster phase changes via SchedulePlayer
///   kUcb / kEgreedy   shared OnlineScheduler attached to every job
/// The bandit seed derives from cfg.seed (reserved stream seed index 3), so
/// the whole run remains a pure function of (cfg, spec).
MetaStreamResult run_stream_with_policy(cluster::ClusterConfig cfg,
                                        const tenancy::StreamSpec& spec);

}  // namespace iosim::core
