#include "cluster/runner.hpp"

#include <cassert>
#include <memory>

#include "check/check.hpp"
#include "obs/attribution.hpp"
#include "sim/random.hpp"

namespace iosim::cluster {

RunResult run_job(const ClusterConfig& cfg, const std::vector<mapred::JobConf>& confs,
                  const SetupHook& setup) {
  assert(!confs.empty());
  Cluster cl(cfg);
  cl.simr().set_budget(cfg.budget);
  // Every job stays alive until the run ends: fault and membership
  // callbacks hold raw Job pointers.
  std::vector<std::unique_ptr<mapred::Job>> jobs;
  std::function<void()> start_next = [&] {
    const std::size_t k = jobs.size();
    mapred::Job& job = *jobs.emplace_back(std::make_unique<mapred::Job>(
        cl.env(), confs[k], cfg.seed ^ (0x9E3779B97F4A7C15ULL + k)));
    if (setup) setup(cl, job);
    if (auto* at = obs::attribution()) {
      // Key attribution records by MapReduce phase: 0 = map, 1 = shuffle,
      // 2 = reduce. Chain onto (not over) any milestone hooks `setup` set.
      at->set_phase(0);
      job.append_hooks({.on_maps_done = [at](sim::Time) { at->set_phase(1); },
                        .on_shuffle_done = [at](sim::Time) { at->set_phase(2); }});
    }
    if (k + 1 < confs.size()) {
      job.append_hooks({.on_done = [&start_next](sim::Time) { start_next(); }});
    }
    job.run();
  };
  start_next();
  cl.simr().run();

  if (auto* ck = check::auditor()) {
    // Drain-only invariants (conservation, emptiness) are meaningless after
    // a budget stop — the run was cut mid-flight by design.
    const bool drained = cl.simr().stop_reason() == sim::StopReason::kDrained;
    check::verify_simulator(*ck, cl.simr(), drained);
    if (drained) ck->verify_end_of_run(cl.simr().now().ns());
  }

  const mapred::Job& job = *jobs.back();
  RunResult r;
  r.stop = cl.simr().stop_reason();
  for (const auto& j : jobs) r.jobs.push_back(j->stats());
  r.stats = job.stats();
  r.failed = job.failed();
  r.failure = job.failure();
  if (!job.done() && !r.failed) {
    // The event loop stopped with the job unfinished: either the budget /
    // watchdog tripped, or the queue genuinely drained mid-job (a
    // simulation deadlock, which stays an assertion failure in debug
    // builds).
    assert(r.stop != sim::StopReason::kDrained &&
           "job neither completed nor aborted — simulation deadlock");
    r.failed = true;
    r.failure = std::string("simulation stopped early (") + sim::to_string(r.stop) +
                ") after " + std::to_string(cl.simr().executed()) + " events at t=" +
                cl.simr().now().to_string();
  }
  r.seconds = (r.stats.t_done - r.jobs.front().t_start).sec();
  r.ph1_seconds = (r.stats.t_maps_done - r.stats.t_start).sec();
  r.ph2_seconds = (r.stats.t_shuffle_done - r.stats.t_maps_done).sec();
  r.ph3_seconds = (r.stats.t_done - r.stats.t_shuffle_done).sec();
  r.ph23_seconds = (r.stats.t_done - r.stats.t_maps_done).sec();
  return r;
}

RunResult run_job_avg(const ClusterConfig& cfg, const std::vector<mapred::JobConf>& confs,
                      int n_seeds, const SetupHook& setup) {
  assert(n_seeds > 0);
  RunResult acc;
  for (int i = 0; i < n_seeds; ++i) {
    ClusterConfig c = cfg;
    c.seed = sim::derive_run_seed(cfg.seed, static_cast<std::uint64_t>(i));
    RunResult r = run_job(c, confs, setup);
    if (i == 0) {  // keep one representative stats block
      acc.stats = r.stats;
      acc.jobs = std::move(r.jobs);
    }
    if (r.failed && !acc.failed) {
      acc.failed = true;
      acc.failure = r.failure;
      acc.stop = r.stop;
    }
    acc.seconds += r.seconds;
    acc.ph1_seconds += r.ph1_seconds;
    acc.ph2_seconds += r.ph2_seconds;
    acc.ph3_seconds += r.ph3_seconds;
    acc.ph23_seconds += r.ph23_seconds;
  }
  const double k = 1.0 / n_seeds;
  acc.seconds *= k;
  acc.ph1_seconds *= k;
  acc.ph2_seconds *= k;
  acc.ph3_seconds *= k;
  acc.ph23_seconds *= k;
  return acc;
}

}  // namespace iosim::cluster
