#include "core/meta_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

#include "cluster/chain_runner.hpp"
#include "core/adaptive_controller.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "virt/physical_host.hpp"

namespace iosim::core {

namespace {

/// The paper's experiment: one job, profiled and executed on a fresh
/// cluster per run.
Experiment make_single_job_experiment(cluster::ClusterConfig cluster_cfg,
                                      mapred::JobConf job_conf,
                                      const MetaSchedulerOptions& opts) {
  Experiment e;
  const PhasePlan plan = opts.plan;
  const int seeds = opts.seeds_per_eval;
  e.phases = plan.count();

  e.profile = [cluster_cfg, job_conf, plan, seeds](iosched::SchedulerPair p) {
    cluster::ClusterConfig cfg = cluster_cfg;
    cfg.pair = p;
    const auto r = cluster::run_job_avg(cfg, job_conf, seeds);
    ProfileEntry entry;
    entry.pair = p;
    entry.total_seconds = r.seconds;
    if (plan.merge_shuffle_tail) {
      entry.phase_seconds = {r.ph1_seconds, r.ph23_seconds};
    } else {
      entry.phase_seconds = {r.ph1_seconds, r.ph2_seconds, r.ph3_seconds};
    }
    return entry;
  };

  e.execute = [cluster_cfg, job_conf, plan, seeds](const PairSchedule& schedule) {
    cluster::ClusterConfig cfg = cluster_cfg;
    cfg.pair = schedule.initial();
    return cluster::run_job_avg(
        cfg, job_conf, seeds, [&schedule, plan](cluster::Cluster& cl, mapred::Job& job) {
          AdaptiveController::attach(cl, job, schedule, plan);
        });
  };
  return e;
}

}  // namespace

Experiment make_chain_experiment(cluster::ClusterConfig cfg,
                                 std::vector<mapred::JobConf> confs,
                                 int seeds_per_eval) {
  Experiment e;
  constexpr int per_job = 2;  // maps / rest, the paper's merged plan
  e.phases = per_job * static_cast<int>(confs.size());

  e.profile = [cfg, confs, seeds_per_eval](iosched::SchedulerPair p) {
    cluster::ClusterConfig c = cfg;
    c.pair = p;
    const auto r = cluster::run_job_chain_avg(c, confs, seeds_per_eval);
    ProfileEntry entry;
    entry.pair = p;
    entry.total_seconds = r.seconds;
    sim::Time prev_end = sim::Time::zero();
    for (const auto& js : r.jobs) {
      // Phase 2k: previous job end -> this job's maps done (includes the
      // scheduling gap); phase 2k+1: maps done -> job done.
      entry.phase_seconds.push_back((js.t_maps_done - prev_end).sec());
      entry.phase_seconds.push_back((js.t_done - js.t_maps_done).sec());
      prev_end = js.t_done;
    }
    return entry;
  };

  e.execute = [cfg, confs, seeds_per_eval](const PairSchedule& schedule) {
    cluster::ClusterConfig c = cfg;
    c.pair = schedule.initial();
    // One controller per chain run (each seed boots a fresh cluster); job k
    // replays schedule phases 2k and 2k+1.
    std::shared_ptr<AdaptiveController> ctl;
    const auto chain = cluster::run_job_chain_avg(
        c, confs, seeds_per_eval,
        [&schedule, &ctl](cluster::Cluster& cl, mapred::Job& job, int idx) {
          if (idx == 0) ctl = AdaptiveController::create(cl, schedule);
          ctl->attach_job(job, PhasePlan{/*merge_shuffle_tail=*/true},
                          per_job * idx);
        });
    cluster::RunResult out;
    out.seconds = chain.seconds;
    if (!chain.jobs.empty()) out.stats = chain.jobs.back();
    return out;
  };
  return e;
}

MetaScheduler::MetaScheduler(cluster::ClusterConfig cluster_cfg,
                             mapred::JobConf job_conf, MetaSchedulerOptions opts)
    : exp_(make_single_job_experiment(std::move(cluster_cfg), std::move(job_conf), opts)),
      opts_(opts) {}

MetaScheduler::MetaScheduler(Experiment experiment, MetaSchedulerOptions opts)
    : exp_(std::move(experiment)), opts_(opts) {}

cluster::RunResult MetaScheduler::execute(const PairSchedule& schedule) const {
  return exp_.execute(schedule);
}

ProfileEntry MetaScheduler::profile_one(iosched::SchedulerPair p) const {
  ProfileEntry e = exp_.profile(p);
  meta_clock_ = meta_clock_ + sim::Time::from_sec_f(e.total_seconds);
  e.measured_at = meta_clock_;
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("meta"), tr->ids.profile, tr->ids.cat_meta,
                meta_clock_, tr->ids.pair, virt::PhysicalHost::pair_code(p),
                tr->ids.value, static_cast<std::int64_t>(e.total_seconds * 1000.0));
  }
  if (auto* reg = trace::registry()) reg->counter("meta.profile_runs").inc();
  if (opts_.verbose) {
    std::printf("  profile %-28s total=%.1fs phases=[", p.to_string().c_str(),
                e.total_seconds);
    for (std::size_t i = 0; i < e.phase_seconds.size(); ++i) {
      std::printf("%s%.1f", i ? ", " : "", e.phase_seconds[i]);
    }
    std::printf("]\n");
  }
  return e;
}

std::vector<ProfileEntry> MetaScheduler::profile_all_pairs() const {
  std::vector<ProfileEntry> out;
  for (const auto& p : iosched::all_scheduler_pairs()) {
    out.push_back(profile_one(p));
  }
  return out;
}

void MetaScheduler::refresh_profile(std::vector<ProfileEntry>& entries) const {
  for (auto& e : entries) e = profile_one(e.pair);
  if (auto* reg = trace::registry()) reg->counter("meta.profile_refreshes").inc();
}

bool MetaScheduler::is_fresh(const ProfileEntry& e) const {
  return opts_.profile_staleness_bound == sim::Time::zero() ||
         meta_clock_ - e.measured_at <= opts_.profile_staleness_bound;
}

double MetaScheduler::evaluate(
    const PairSchedule& schedule,
    std::vector<std::pair<std::string, double>>* cache) const {
  const std::string key = schedule.key();
  if (cache != nullptr) {
    for (const auto& [k, v] : *cache) {
      if (k == key) return v;
    }
  }
  const double secs = exp_.execute(schedule).seconds;
  meta_clock_ = meta_clock_ + sim::Time::from_sec_f(secs);
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("meta"), tr->ids.probe, tr->ids.cat_meta, meta_clock_,
                tr->ids.value, static_cast<std::int64_t>(secs * 1000.0));
  }
  if (auto* reg = trace::registry()) reg->counter("meta.heuristic_evals").inc();
  if (cache != nullptr) cache->emplace_back(key, secs);
  return secs;
}

MetaResult MetaScheduler::optimize() {
  MetaResult res;
  const int P = exp_.phases;

  // ---- Step 1: profile every single pair (Fig. 6). ----
  res.profile = profile_all_pairs();

  for (const auto& e : res.profile) {
    if (e.pair == iosched::kDefaultPair) res.default_seconds = e.total_seconds;
  }
  res.best_single_seconds = std::numeric_limits<double>::infinity();
  for (const auto& e : res.profile) {
    if (e.total_seconds < res.best_single_seconds) {
      res.best_single_seconds = e.total_seconds;
      res.best_single = e.pair;
    }
  }

  // Per-phase rankings (ascending phase time = descending performance
  // score) and the best single pair for every suffix of phases. Both are
  // recomputable: a staleness-triggered re-profile invalidates the order.
  std::vector<std::vector<const ProfileEntry*>> ranking(static_cast<std::size_t>(P));
  auto sort_rankings = [&] {
    for (int i = 0; i < P; ++i) {
      auto& r = ranking[static_cast<std::size_t>(i)];
      r.clear();
      for (const auto& e : res.profile) r.push_back(&e);
      std::sort(r.begin(), r.end(), [i](const ProfileEntry* a, const ProfileEntry* b) {
        return a->phase_seconds[static_cast<std::size_t>(i)] <
               b->phase_seconds[static_cast<std::size_t>(i)];
      });
    }
  };
  sort_rankings();
  std::vector<SchedulerPair> suffix_best(static_cast<std::size_t>(P) + 1);
  auto compute_suffix_best = [&] {
    for (int i = 0; i < P; ++i) {
      // Prefer fresh measurements; fall back to the best *measured* (stale)
      // entry only when nothing fresh exists for this suffix.
      for (const bool fresh_only : {true, false}) {
        double best = std::numeric_limits<double>::infinity();
        bool found = false;
        for (const auto& e : res.profile) {
          if (fresh_only && !is_fresh(e)) continue;
          double s = 0.0;
          for (int k = i; k < P; ++k) s += e.phase_seconds[static_cast<std::size_t>(k)];
          if (s < best) {
            best = s;
            suffix_best[static_cast<std::size_t>(i)] = e.pair;
            found = true;
          }
        }
        if (found) break;
      }
    }
  };
  compute_suffix_best();

  // ---- Step 2: Algorithm 1. ----
  std::vector<std::pair<std::string, double>> cache;
  int evals = 0;
  PairSchedule sol;
  sol.phases.assign(static_cast<std::size_t>(P), std::nullopt);

  auto make_schedule = [&](int phase, SchedulerPair candidate) {
    PairSchedule s = sol;
    s.phases[static_cast<std::size_t>(phase)] = candidate;
    // All remaining phases run the best single suffix pair (S_{i+1}).
    for (int k = phase + 1; k < P; ++k) {
      s.phases[static_cast<std::size_t>(k)] =
          (k == phase + 1) ? std::optional<SchedulerPair>(
                                 suffix_best[static_cast<std::size_t>(k)])
                           : std::nullopt;
    }
    // Normalize: an entry equal to the effective previous pair is a no-op
    // switch; encode it as 0 so we never pay a redundant quiesce.
    for (int k = 1; k < P; ++k) {
      auto& ph = s.phases[static_cast<std::size_t>(k)];
      if (ph.has_value() && *ph == s.effective(k - 1)) ph = std::nullopt;
    }
    return s;
  };

  for (int i = 0; i < P; ++i) {
    // Staleness gate: scores age as the search itself burns time. Probe only
    // fresh entries for this phase; when none survive, re-measure every pair
    // and re-rank (meta.stale_skips / meta.profile_refreshes count both).
    std::vector<const ProfileEntry*> rank;
    for (const auto* e : ranking[static_cast<std::size_t>(i)]) {
      if (is_fresh(*e)) rank.push_back(e);
    }
    const auto skipped =
        ranking[static_cast<std::size_t>(i)].size() - rank.size();
    if (skipped > 0) {
      if (auto* reg = trace::registry()) {
        reg->counter("meta.stale_skips").inc(static_cast<std::int64_t>(skipped));
      }
    }
    if (rank.empty()) {
      refresh_profile(res.profile);
      sort_rankings();
      compute_suffix_best();
      cache.clear();  // cached probe times predate the refreshed conditions
      rank = ranking[static_cast<std::size_t>(i)];
    }
    std::size_t j = 0;
    auto count_eval = [&](const PairSchedule& s) {
      const std::size_t before = cache.size();
      const double v = evaluate(s, &cache);
      if (cache.size() != before) ++evals;
      return v;
    };
    double t_cur = count_eval(make_schedule(i, rank[j]->pair));
    while (j + 1 < rank.size()) {
      const double t_next = count_eval(make_schedule(i, rank[j + 1]->pair));
      if (t_next < t_cur) {
        ++j;
        t_cur = t_next;
      } else {
        break;  // performance got worse: the pair for this phase is fixed
      }
    }
    const SchedulerPair chosen = rank[j]->pair;
    if (i > 0 && chosen == sol.effective(i - 1)) {
      sol.phases[static_cast<std::size_t>(i)] = std::nullopt;  // the "0" entry
    } else {
      sol.phases[static_cast<std::size_t>(i)] = chosen;
    }
    if (opts_.verbose) {
      std::printf("  phase %d fixed: %s (probed %zu candidates, best %.1fs)\n",
                  i + 1, chosen.to_string().c_str(), j + 2, t_cur);
    }
  }

  // ---- Step 3: final adaptive execution. ----
  res.solution = sol;
  res.adaptive_run = execute(sol);
  res.adaptive_seconds = res.adaptive_run.seconds;
  res.heuristic_evaluations = evals;

  if (opts_.fallback_to_best_single &&
      res.adaptive_seconds > res.best_single_seconds) {
    // Switch costs ate the per-phase gains: ship the best single pair.
    res.solution = PairSchedule::single(res.best_single, P);
    res.adaptive_run = execute(res.solution);
    res.adaptive_seconds = res.adaptive_run.seconds;
    res.fell_back = true;
    if (auto* reg = trace::registry()) reg->counter("meta.fallbacks").inc();
    if (opts_.verbose) {
      std::printf("  fell back to single pair %s (%.1fs)\n",
                  res.best_single.to_string().c_str(), res.adaptive_seconds);
    }
  }
  return res;
}

}  // namespace iosim::core
