#include "core/meta_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/adaptive_controller.hpp"
#include "sim/random.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "virt/physical_host.hpp"

namespace iosim::core {

Experiment make_chain_experiment(cluster::ClusterConfig cfg,
                                 std::vector<mapred::JobConf> confs,
                                 int seeds_per_eval, PhasePlan plan) {
  Experiment e;
  e.phases = plan.count() * static_cast<int>(confs.size());

  e.profile = [cfg, confs, seeds_per_eval, plan,
               phases = e.phases](iosched::SchedulerPair p) {
    ProfileEntry entry;
    entry.pair = p;
    entry.phase_seconds.assign(static_cast<std::size_t>(phases), 0.0);
    // Summed over seeds, then scaled by 1/n: run_job_avg's order, which
    // keeps a one-job chain bit-identical to it.
    for (int i = 0; i < seeds_per_eval; ++i) {
      cluster::ClusterConfig c = cfg;
      c.pair = p;
      c.seed = sim::derive_run_seed(cfg.seed, static_cast<std::uint64_t>(i));
      const auto r = cluster::run_job(c, confs);
      entry.total_seconds += r.seconds;
      // Job k's first phase runs from the previous job's end (the chain's
      // start, for job 0) to its maps done, so every scheduling gap lands
      // in a phase. A milestone an aborted job never reached ends its phase
      // at zero length; phases of jobs that never started stay 0.
      std::size_t k = 0;
      sim::Time prev = r.jobs.front().t_start;
      auto phase_to = [&](sim::Time end) {
        end = std::max(end, prev);
        entry.phase_seconds[k++] += (end - prev).sec();
        prev = end;
      };
      for (const auto& js : r.jobs) {
        phase_to(js.t_maps_done);
        if (!plan.merge_shuffle_tail) phase_to(js.t_shuffle_done);
        phase_to(js.t_done);
      }
    }
    const double scale = 1.0 / seeds_per_eval;
    entry.total_seconds *= scale;
    for (double& s : entry.phase_seconds) s *= scale;
    return entry;
  };

  e.execute = [cfg, confs, seeds_per_eval, plan](const PairSchedule& schedule) {
    cluster::ClusterConfig c = cfg;
    c.pair = schedule.initial();
    // One controller per run (each seed boots a fresh cluster); job k
    // replays schedule phases from k * plan.count() on.
    std::shared_ptr<AdaptiveController> ctl;
    int offset = 0;
    return cluster::run_job_avg(
        c, confs, seeds_per_eval, [&](cluster::Cluster& cl, mapred::Job& job) {
          // A run's first job is built at t = 0, every later one inside its
          // predecessor's commit.
          if (cl.simr().now() == sim::Time::zero()) {
            ctl = AdaptiveController::create(cl, schedule);
            offset = 0;
          }
          ctl->attach_job(job, plan, offset);
          offset += plan.count();
        });
  };
  return e;
}

MetaScheduler::MetaScheduler(cluster::ClusterConfig cluster_cfg,
                             mapred::JobConf job_conf, MetaSchedulerOptions opts)
    : exp_(make_chain_experiment(std::move(cluster_cfg), {std::move(job_conf)},
                                 opts.seeds_per_eval, opts.plan)) {}

MetaScheduler::MetaScheduler(Experiment experiment, MetaSchedulerOptions /*opts*/)
    : exp_(std::move(experiment)) {}

cluster::RunResult MetaScheduler::execute(const PairSchedule& schedule) const {
  return exp_.execute(schedule);
}

ProfileEntry MetaScheduler::profile_one(iosched::SchedulerPair p) const {
  ProfileEntry e = exp_.profile(p);
  meta_clock_ = meta_clock_ + sim::Time::from_sec_f(e.total_seconds);
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("meta"), tr->ids.profile, tr->ids.cat_meta,
                meta_clock_, tr->ids.pair, virt::PhysicalHost::pair_code(p),
                tr->ids.value, static_cast<std::int64_t>(e.total_seconds * 1000.0));
  }
  if (auto* reg = trace::registry()) reg->counter("meta.profile_runs").inc();
  return e;
}

std::vector<ProfileEntry> MetaScheduler::profile_all_pairs() const {
  std::vector<ProfileEntry> out;
  for (const auto& p : iosched::all_scheduler_pairs()) {
    out.push_back(profile_one(p));
  }
  return out;
}

const cluster::RunResult& MetaScheduler::evaluate(const PairSchedule& schedule,
                                                  std::vector<Evaluation>& cache) const {
  std::string key = schedule.key();
  for (const Evaluation& e : cache) {
    if (e.key == key) return e.run;
  }
  cluster::RunResult run = exp_.execute(schedule);
  const double secs = run.seconds;
  meta_clock_ = meta_clock_ + sim::Time::from_sec_f(secs);
  if (auto* tr = trace::tracer()) {
    tr->instant(tr->track("meta"), tr->ids.probe, tr->ids.cat_meta, meta_clock_,
                tr->ids.value, static_cast<std::int64_t>(secs * 1000.0));
  }
  if (auto* reg = trace::registry()) reg->counter("meta.heuristic_evals").inc();
  return cache.emplace_back(Evaluation{std::move(key), std::move(run)}).run;
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
  // score) and the best single pair for every suffix of phases.
  std::vector<std::vector<const ProfileEntry*>> ranking(static_cast<std::size_t>(P));
  for (int i = 0; i < P; ++i) {
    auto& r = ranking[static_cast<std::size_t>(i)];
    for (const auto& e : res.profile) r.push_back(&e);
    std::sort(r.begin(), r.end(), [i](const ProfileEntry* a, const ProfileEntry* b) {
      return a->phase_seconds[static_cast<std::size_t>(i)] <
             b->phase_seconds[static_cast<std::size_t>(i)];
    });
  }
  std::vector<SchedulerPair> suffix_best(static_cast<std::size_t>(P) + 1);
  for (int i = 0; i < P; ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& e : res.profile) {
      double s = 0.0;
      for (int k = i; k < P; ++k) s += e.phase_seconds[static_cast<std::size_t>(k)];
      if (s < best) {
        best = s;
        suffix_best[static_cast<std::size_t>(i)] = e.pair;
      }
    }
  }

  // ---- Step 2: Algorithm 1. ----
  std::vector<Evaluation> cache;
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
    const auto& rank = ranking[static_cast<std::size_t>(i)];
    std::size_t j = 0;
    auto count_eval = [&](const PairSchedule& s) {
      const std::size_t before = cache.size();
      const double v = evaluate(s, cache).seconds;
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
  }

  // ---- Step 3: the adaptive run. ----
  // The last phase's search evaluated the solution itself (its probe is the
  // fixed prefix, the chosen pair, no suffix), so its run is in the cache.
  res.solution = sol;
  res.adaptive_run = evaluate(sol, cache);
  res.adaptive_seconds = res.adaptive_run.seconds;
  res.heuristic_evaluations = evals;

  if (res.adaptive_seconds > res.best_single_seconds) {
    // Switch costs ate the per-phase gains (possible on short jobs): ship
    // the best single pair. The profiling data is already paid for, so the
    // fallback is free.
    res.solution = PairSchedule::single(res.best_single, P);
    res.adaptive_run = execute(res.solution);
    res.adaptive_seconds = res.adaptive_run.seconds;
    res.fell_back = true;
    if (auto* reg = trace::registry()) reg->counter("meta.fallbacks").inc();
  }
  // The paper's bound: at most P x S executions. A search past it is a
  // defect, so the result must not pass for a good run.
  const int bound = P * iosched::kNumSchedulerPairs;
  if (evals > bound && !res.adaptive_run.failed) {
    res.adaptive_run.failed = true;
    res.adaptive_run.failure = "Algorithm 1 issued " + std::to_string(evals) +
                               " heuristic executions, over its P x S bound of " +
                               std::to_string(bound);
  }
  return res;
}

}  // namespace iosim::core
