#include "core/online_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>

#include "core/meta_scheduler.hpp"
#include "iosched/pair.hpp"
#include "iosched/scheduler.hpp"
#include "mapred/job_conf.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "virt/physical_host.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::core {

namespace {

constexpr int kArms = iosched::kNumSchedulerPairs;
/// Arms explored per phase kind by default. Deliberately small: on an
/// open-arrival stream every explored arm costs a cluster quiesce plus a
/// measurement dwell, and a handful of pairs already spans the quality
/// range (raise via `budget=` for long streams).
constexpr int kDefaultBudget = 4;
/// Estimate aging: reward() blends with at least this EWMA weight once an
/// arm has a few samples, so old regimes fade even without fault events.
constexpr double kEstimateAlpha = 0.3;
/// Pulls below this count as "never sampled under the current regime" —
/// decay_all pushes arms back under it to force re-exploration.
constexpr double kMinPulls = 1.0;
/// Bandit re-pull cadence inside a long phase. Cluster-phase changes are
/// the primary pull sites, but a stationary workload would otherwise never
/// generate pulls at all; the periodic tick lets the bandit converge on
/// single-phase streams too.
constexpr sim::Time kSamplePeriod = sim::Time::from_sec(5);
/// Minimum cluster disk busy time a reward window must contain to be
/// credited. A near-idle window (arrival lull, all jobs in CPU phases)
/// measures nothing about the elevator and would poison the estimate.
constexpr double kMinBusySeconds = 0.5;

/// Shared estimate tables + seeded exploration order; the two policies only
/// differ in select().
class BanditBase : public OnlinePolicy {
 public:
  BanditBase(const OnlineConfig& cfg, double def_explore, double def_decay)
      : explore_(cfg.explore >= 0.0 ? cfg.explore : def_explore),
        decay_(cfg.decay > 0.0 ? cfg.decay : def_decay),
        budget_(cfg.budget > 0 ? std::min(cfg.budget, kArms) : kDefaultBudget),
        rng_(cfg.seed) {
    // One seed-shuffled arm order per phase kind: the first `budget_` arms
    // are that phase's exploration candidates. Deterministic in cfg.seed.
    for (auto& ord : order_) {
      std::iota(ord.begin(), ord.end(), 0);
      for (int i = kArms - 1; i > 0; --i) {
        const auto j = rng_.below(static_cast<std::uint64_t>(i) + 1);
        std::swap(ord[static_cast<std::size_t>(i)], ord[j]);
      }
    }
  }

  void reward(int phase, int arm, double mb_per_s) override {
    ArmStats& s = cell(phase, arm);
    s.pulls += 1.0;
    // Plain mean for the first few samples, then a fixed-alpha EWMA so the
    // estimate ages: a pair that was great before a regime shift loses its
    // halo within a handful of windows.
    const double alpha = std::max(1.0 / s.pulls, kEstimateAlpha);
    s.value += alpha * (mb_per_s - s.value);
  }

  void decay_all(double factor) override {
    for (auto& row : table_) {
      for (auto& s : row) s.pulls *= factor;
    }
  }

  const ArmStats& stats(int phase, int arm) const override {
    return table_[static_cast<std::size_t>(phase)][static_cast<std::size_t>(arm)];
  }

 protected:
  ArmStats& cell(int phase, int arm) {
    return table_[static_cast<std::size_t>(phase)][static_cast<std::size_t>(arm)];
  }

  /// Exploration candidates for `phase`: the first `budget_` arms of the
  /// shuffled order, plus the installed arm (it always stays eligible, so a
  /// boot pair outside the subset can be kept — or abandoned — on merit).
  std::vector<int> candidates(int phase, int current_arm) const {
    std::vector<int> c;
    c.reserve(static_cast<std::size_t>(budget_) + 1);
    const auto& ord = order_[static_cast<std::size_t>(phase)];
    bool has_cur = false;
    for (int i = 0; i < budget_; ++i) {
      c.push_back(ord[static_cast<std::size_t>(i)]);
      has_cur = has_cur || c.back() == current_arm;
    }
    if (!has_cur && current_arm >= 0 && current_arm < kArms)
      c.push_back(current_arm);
    return c;
  }

  /// Estimate used for ranking: an unsampled arm is scored neutrally (the
  /// mean of the sampled candidates), so exploration is driven by the
  /// confidence term alone — full optimism (best sampled value) made every
  /// untried arm irresistible and the bandit swept its whole budget even
  /// when the horizon could not pay for it.
  double ranking_value(int phase, int arm, double vmean) const {
    const ArmStats& s = stats(phase, arm);
    return s.pulls < kMinPulls ? vmean : s.value;
  }

  /// (best, mean) value over the sampled candidates; (0, 0) if none.
  std::pair<double, double> sampled_value_stats(
      int phase, const std::vector<int>& cands) const {
    double vmax = 0.0, sum = 0.0;
    int n = 0;
    for (int a : cands) {
      const ArmStats& s = stats(phase, a);
      if (s.pulls >= kMinPulls) {
        vmax = std::max(vmax, s.value);
        sum += s.value;
        ++n;
      }
    }
    return {vmax, n ? sum / n : 0.0};
  }

  double explore_;
  double decay_;
  int budget_;
  sim::Rng rng_;
  std::array<std::array<ArmStats, kArms>, kPhaseKinds> table_{};
  std::array<std::array<int, kArms>, kPhaseKinds> order_{};
};

class UcbPolicy final : public BanditBase {
 public:
  explicit UcbPolicy(const OnlineConfig& cfg) : BanditBase(cfg, 0.5, 0.5) {}
  const char* name() const override { return "ucb"; }

  int select(int phase, int current_arm,
             const std::array<double, kArms>& switch_penalty) override {
    const auto cands = candidates(phase, current_arm);
    const auto [vmax, vmean] = sampled_value_stats(phase, cands);
    double total = 0.0;
    for (int a : cands) total += stats(phase, a).pulls;
    // Confidence width scales with the observed reward *spread* across
    // sampled arms (rewards are MB/s, not [0,1] as in the textbook UCB1):
    // exploring is worth at most the gap between the best and worst pair,
    // so the bonus stays commensurate with both real arm differences and
    // the switch penalty. Before two arms are sampled there is no spread
    // yet; a fraction of the best value stands in.
    int sampled = 0;
    double vmin = vmax;
    for (int a : cands) {
      const ArmStats& s = stats(phase, a);
      if (s.pulls >= kMinPulls) {
        ++sampled;
        vmin = std::min(vmin, s.value);
      }
    }
    const double spread = vmax - vmin;
    const double scale =
        sampled >= 2 ? std::max(spread, 0.05 * vmax) : std::max(0.25 * vmax, 1.0);
    const double ln_total = std::log(total + 1.0);

    int best = current_arm >= 0 ? current_arm : cands.front();
    double best_score = score(phase, best, vmean, scale, ln_total,
                              switch_penalty[static_cast<std::size_t>(best)]);
    for (int a : cands) {
      if (a == best) continue;
      const double s = score(phase, a, vmean, scale, ln_total,
                             switch_penalty[static_cast<std::size_t>(a)]);
      if (s > best_score) {
        best = a;
        best_score = s;
      }
    }
    return best;
  }

 private:
  double score(int phase, int arm, double vmean, double scale, double ln_total,
               double penalty) const {
    const ArmStats& s = stats(phase, arm);
    const double pulls = std::max(s.pulls, 1.0);
    const double bonus = explore_ * scale * std::sqrt(2.0 * ln_total / pulls);
    return ranking_value(phase, arm, vmean) + bonus - penalty;
  }
};

class EgreedyPolicy final : public BanditBase {
 public:
  explicit EgreedyPolicy(const OnlineConfig& cfg) : BanditBase(cfg, 0.25, 0.9) {}
  const char* name() const override { return "egreedy"; }

  int select(int phase, int current_arm,
             const std::array<double, kArms>& switch_penalty) override {
    const auto cands = candidates(phase, current_arm);
    // Epsilon ages with the phase's accumulated pulls; decay_all shrinks
    // the pull mass on fault events, so epsilon recovers and the policy
    // re-explores the post-fault cluster.
    double total = 0.0;
    for (int a = 0; a < kArms; ++a) total += stats(phase, a).pulls;
    const double eps = explore_ * std::pow(decay_, total);
    if (rng_.uniform() < eps)
      return cands[rng_.below(cands.size())];

    const double vmean = sampled_value_stats(phase, cands).second;
    int best = current_arm >= 0 ? current_arm : cands.front();
    double best_score =
        ranking_value(phase, best, vmean) -
        switch_penalty[static_cast<std::size_t>(best)];
    for (int a : cands) {
      if (a == best) continue;
      const double s = ranking_value(phase, a, vmean) -
                       switch_penalty[static_cast<std::size_t>(a)];
      if (s > best_score) {
        best = a;
        best_score = s;
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<OnlinePolicy> make_online_policy(const OnlineConfig& cfg) {
  if (cfg.kind == tenancy::MetaPolicy::kEgreedy)
    return std::make_unique<EgreedyPolicy>(cfg);
  return std::make_unique<UcbPolicy>(cfg);
}

// ---------------------------------------------------------------------------
// OnlineScheduler

OnlineScheduler::OnlineScheduler(cluster::Cluster& cl, OnlineConfig cfg)
    : PairController(cl),
      event_decay_(cfg.decay > 0.0 ? cfg.decay : 0.5),
      policy_(make_online_policy(cfg)) {}

std::shared_ptr<OnlineScheduler> OnlineScheduler::create(cluster::Cluster& cl,
                                                         OnlineConfig cfg) {
  auto sched =
      std::shared_ptr<OnlineScheduler>(new OnlineScheduler(cl, cfg));
  // Fault/membership events age every estimate: the cluster the bandit
  // profiled no longer exists, so confidence bounds widen and it re-explores.
  if (auto* ms = cl.membership()) {
    std::weak_ptr<OnlineScheduler> weak = sched;
    ms->on_declared_dead([weak](int, sim::Time t) {
      if (auto s = weak.lock()) s->on_fault_event(t);
    });
    ms->on_schedulable_again([weak](int, sim::Time t) {
      if (auto s = weak.lock()) s->on_fault_event(t);
    });
  }
  return sched;
}

void OnlineScheduler::stream_job_admitted() {
  if (cur_kind_ < 0) {
    // First job: open the phase-0 reward window at the boot pair. No pull —
    // the cluster just booted with cfg.pair and there is nothing to learn
    // from yet.
    cur_kind_ = 0;
    win_start_ = cl_.simr().now();
    run_start_ = win_start_;
    win_bytes_ = cluster_bytes();
    win_busy_ns_ = cluster_busy_ns();
  }
  ensure_ticking();
}

void OnlineScheduler::on_switched(int kind, iosched::SchedulerPair target) {
  // The window in flight contains the switch quiesce (near-zero throughput
  // while every elevator drains); crediting it would brand the new arm with
  // the *cost of trying it*, biasing the bandit against everything it
  // explores. Measure the new arm from the next clean window instead.
  skip_next_reward_ = true;
  last_switch_ = cl_.simr().now();
  if (auto* reg = trace::registry()) reg->counter("meta.arm_switches").inc();
  if (auto* tr = trace::tracer()) {
    if (!tt_arm_switch_) {
      tt_arm_switch_ = tr->intern("tt_arm_switch");
      tr->pin_name(tt_arm_switch_);
    }
    tr->instant(tr->track("meta"), tt_arm_switch_, tr->ids.cat_meta,
                cl_.simr().now(), tr->ids.index, kind, tr->ids.pair,
                virt::PhysicalHost::pair_code(target), tr->ids.value,
                switches_performed());
  }
}

void OnlineScheduler::on_switch_failed(int kind, int attempt) {
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("meta"), tr->ids.switch_fail, tr->ids.cat_meta,
                cl_.simr().now(), tr->ids.index, kind, tr->ids.attempt, attempt);
  }
}

void OnlineScheduler::enter_phase(int kind, sim::Time t) {
  if (kind < 0 || kind >= kPhaseKinds) return;
  close_window(t);
  cur_kind_ = kind;
  pull(t);
}

void OnlineScheduler::close_window(sim::Time now) {
  const double elapsed = (now - win_start_).sec();
  if (skip_next_reward_) {
    // Discard the window polluted by a switch transient: reset the
    // baseline, credit nothing.
    skip_next_reward_ = false;
    win_start_ = now;
    win_bytes_ = cluster_bytes();
    win_busy_ns_ = cluster_busy_ns();
    return;
  }
  // Normalize by disk *busy* time, not wall time. Wall-clock MB/s inverts
  // the ranking on demand-limited streams: a fast arm drains the backlog
  // and idles the disks (low MB/s) while a slow arm keeps them saturated
  // (high MB/s). MB per busy second is elevator efficiency — it compares
  // arms fairly regardless of how much work arrived. A window with almost
  // no busy time carries no signal and is skipped, not credited as zero.
  const double busy_s =
      static_cast<double>(cluster_busy_ns() - win_busy_ns_) / 1e9;
  if (cur_kind_ >= 0 && elapsed > 1e-9 && busy_s > kMinBusySeconds) {
    const std::int64_t bytes = cluster_bytes() - win_bytes_;
    const double mb_per_busy_s =
        static_cast<double>(bytes) / busy_s / (1024.0 * 1024.0);
    // Credit the pair actually installed during the window — after a failed
    // switch that is the old pair, and the estimate should know.
    const int arm = cl_.pair().index();
    policy_->reward(cur_kind_, arm, mb_per_busy_s);
    ++reward_samples_;
    mean_reward_ += (mb_per_busy_s - mean_reward_) / reward_samples_;
    horizon_s_ += 0.3 * (elapsed - horizon_s_);
    if (auto* reg = trace::registry()) {
      reg->gauge("meta.last_reward_mbps").set(mb_per_busy_s);
      reg->gauge("meta.horizon_s").set(horizon_s_);
    }
  }
  win_start_ = now;
  win_bytes_ = cluster_bytes();
  win_busy_ns_ = cluster_busy_ns();
}

void OnlineScheduler::pull(sim::Time t) {
  // Dwell: after a switch, hold the new arm for at least two sample
  // periods — one clean measurement window — before reconsidering.
  // Without this the bandit can ping-pong faster than it can measure.
  if (switches_performed() > 0 && (t - last_switch_) < kSamplePeriod * 2.0) return;

  const iosched::SchedulerPair cur = cl_.pair();
  const int cur_arm = cur.index();

  // Predicted switch cost, amortized over how long the chosen arm will
  // plausibly be held, expressed in reward units. The holding horizon is
  // the larger of the observed window EWMA and half the elapsed run: a
  // switch adopted late in a long stream keeps paying off until the end,
  // so its fixed quiesce cost shrinks relative to the gain — without this
  // the penalty (scaled by the mean reward) dwarfs the value differences
  // between arms and the bandit never leaves its boot pair.
  std::array<double, iosched::kNumSchedulerPairs> penalty{};
  const double rate = std::max(mean_reward_, 0.0);
  const double amort =
      std::max({horizon_s_, 0.5 * (t - run_start_).sec(), 1.0});
  for (int a = 0; a < iosched::kNumSchedulerPairs; ++a) {
    if (a == cur_arm) continue;
    penalty[static_cast<std::size_t>(a)] = kSwitchCostSeconds / amort * rate;
  }

  const int arm = policy_->select(cur_kind_, cur_arm, penalty);
  ++pulls_;
  if (auto* reg = trace::registry()) reg->counter("meta.pulls").inc();
  if (auto* tr = trace::tracer()) {
    if (!tt_arm_pull_) {
      tt_arm_pull_ = tr->intern("tt_arm_pull");
      tr->pin_name(tt_arm_pull_);
    }
    tr->instant(tr->track("meta"), tt_arm_pull_, tr->ids.cat_meta, t,
                tr->ids.index, cur_kind_, tr->ids.pair,
                virt::PhysicalHost::pair_code(
                    iosched::SchedulerPair::from_index(arm)),
                tr->ids.value, pulls_);
  }

  // Every pull is a decision boundary: any retry still chasing an older
  // decision is stale, whether or not we switch now.
  supersede();
  if (arm != cur_arm)
    request_switch(cur_kind_, iosched::SchedulerPair::from_index(arm));
}

void OnlineScheduler::ensure_ticking() {
  if (ticking_ || agg_.live_jobs() <= 0) return;
  ticking_ = true;
  std::weak_ptr<OnlineScheduler> weak =
      std::static_pointer_cast<OnlineScheduler>(shared_from_this());
  cl_.simr().after(kSamplePeriod, [weak] {
    auto s = weak.lock();
    if (!s) return;
    s->ticking_ = false;
    if (s->agg_.live_jobs() <= 0) return;  // stream drained; stop ticking
    // Mid-phase re-pull: close the window, credit the installed arm, and
    // let the policy reconsider. This is what makes the bandit converge on
    // stationary workloads where cluster-phase changes are rare.
    const sim::Time now = s->cl_.simr().now();
    s->close_window(now);
    s->pull(now);
    s->ensure_ticking();
  });
}

void OnlineScheduler::on_fault_event(sim::Time t) {
  close_window(t);  // don't blame the new regime's window on the old one
  policy_->decay_all(event_decay_);
  ++decays_;
  if (auto* reg = trace::registry()) reg->counter("meta.decays").inc();
  if (auto* tr = trace::tracer()) {
    if (!tt_arm_pull_) {
      tt_arm_pull_ = tr->intern("tt_arm_pull");
      tr->pin_name(tt_arm_pull_);
    }
    // Re-use the pull instant's track for the decay marker: index = -1
    // distinguishes it from a real pull.
    tr->instant(tr->track("meta"), tr->ids.probe, tr->ids.cat_meta, t,
                tr->ids.index, -1, tr->ids.value, decays_);
  }
}

std::int64_t OnlineScheduler::cluster_bytes() const {
  std::int64_t total = 0;
  for (std::size_t h = 0; h < cl_.n_hosts(); ++h) {
    const auto& c = cl_.host(h).dom0_layer().counters();
    total += c.bytes_completed[0] + c.bytes_completed[1];
  }
  return total;
}

std::uint64_t OnlineScheduler::cluster_busy_ns() const {
  std::uint64_t total = 0;
  for (std::size_t h = 0; h < cl_.n_hosts(); ++h) {
    total += cl_.host(h).dom0_layer().counters().busy_ns;
  }
  return total;
}

// ---------------------------------------------------------------------------
// SchedulePlayer

SchedulePlayer::SchedulePlayer(cluster::Cluster& cl, PairSchedule schedule)
    : PairController(cl), schedule_(std::move(schedule)) {}

std::shared_ptr<SchedulePlayer> SchedulePlayer::create(cluster::Cluster& cl,
                                                       PairSchedule schedule,
                                                       PhasePlan plan) {
  assert(schedule.count() == plan.count());
  (void)plan;
  return std::shared_ptr<SchedulePlayer>(
      new SchedulePlayer(cl, std::move(schedule)));
}

void SchedulePlayer::enter_phase(int kind, sim::Time) {
  if (kind < 0 || kind >= kPhaseKinds) return;
  // Cluster phase kind -> schedule phase index: a two-phase schedule folds
  // shuffle and reduce onto its tail entry.
  const int idx =
      schedule_.count() >= kPhaseKinds ? kind : (kind == 0 ? 0 : 1);
  const iosched::SchedulerPair target =
      schedule_.effective(std::min(idx, schedule_.count() - 1));
  supersede();
  if (!(target == cl_.pair())) request_switch(idx, target);
}

// ---------------------------------------------------------------------------
// run_stream_with_policy

MetaStreamResult run_stream_with_policy(cluster::ClusterConfig cfg,
                                        const tenancy::StreamSpec& spec) {
  MetaStreamResult out;
  const tenancy::MetaSpec& m = spec.meta;

  if (m.policy == tenancy::MetaPolicy::kNone ||
      m.policy == tenancy::MetaPolicy::kStatic) {
    if (m.policy == tenancy::MetaPolicy::kStatic) {
      if (const auto p = iosched::SchedulerPair::from_letters(m.pair)) cfg.pair = *p;
    }
    out.boot_pair = cfg.pair.letters();
    out.stream = tenancy::run_stream(cfg, spec);
    return out;
  }

  // One controller serves every job of the run: the schedule replay for
  // kOffline, the shared bandit learning state for kUcb / kEgreedy.
  const bool offline = m.policy == tenancy::MetaPolicy::kOffline;
  std::function<std::shared_ptr<PairController>(cluster::Cluster&)> make;
  if (offline) {
    // Algorithm 1, profiled once on a healthy side cluster: the class named
    // by meta.profile (default: the first class) at its midpoint size
    // stands in for the whole stream — exactly the stale-corpus assumption
    // the online policies exist to drop.
    const tenancy::ClassSpec* cls = &spec.classes.front();
    for (const auto& c : spec.classes) {
      if (c.name == m.profile) cls = &c;
    }
    const auto model = workloads::by_name(cls->workload);
    const std::int64_t bytes =
        static_cast<std::int64_t>((cls->mb_min + cls->mb_max) / 2) *
        mapred::kMiB;
    const mapred::JobConf jc = workloads::make_job(*model, bytes);

    cluster::ClusterConfig side = cfg;
    side.faults = {};  // the profiler never sees the faults coming
    MetaSchedulerOptions opts;
    opts.plan = PhasePlan::for_job(jc, side.n_hosts * side.vms_per_host);
    MetaScheduler ms(side, jc, opts);
    MetaResult r = ms.optimize();
    out.profile_runs = static_cast<int>(r.profile.size());
    out.heuristic_evals = r.heuristic_evaluations;
    out.schedule_key = r.solution.key();

    cfg.pair = r.solution.initial();
    make = [solution = r.solution, plan = opts.plan](cluster::Cluster& cl) {
      return SchedulePlayer::create(cl, solution, plan);
    };
  } else {
    const OnlineConfig oc =
        OnlineConfig::from_meta(m, sim::derive_run_seed(cfg.seed, 3));
    make = [oc](cluster::Cluster& cl) { return OnlineScheduler::create(cl, oc); };
  }
  out.boot_pair = cfg.pair.letters();

  auto holder = std::make_shared<std::shared_ptr<PairController>>();
  out.stream = tenancy::run_stream(
      cfg, spec, [holder, make](cluster::Cluster& cl, mapred::Job& job, int) {
        if (!*holder) *holder = make(cl);
        (*holder)->attach_stream_job(job);
      });
  if (!*holder) return out;
  out.arm_switches = (*holder)->switches_performed();
  if (!offline) {
    const auto& bandit = static_cast<const OnlineScheduler&>(**holder);
    out.arm_pulls = bandit.pulls();
    out.switch_failures = bandit.switch_failures();
    out.decays = bandit.decays();
  }
  return out;
}

}  // namespace iosim::core
