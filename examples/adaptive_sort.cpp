// Example: the full meta-scheduler pipeline on the sort benchmark.
//
// This is the paper's end-to-end story in one program:
//   1. profile the job once per candidate (VMM, VM) elevator pair,
//   2. run Algorithm 1 (greedy per-phase assignment probed with full
//      executions, switch costs included),
//   3. execute the job with the adaptive controller switching the pair at
//      the detected phase boundary,
// and compare against the default pair and the best single pair.
#include <cstdio>

#include "core/meta_scheduler.hpp"
#include "workloads/benchmarks.hpp"

using namespace iosim;

int main() {
  cluster::ClusterConfig cfg;  // 4 hosts x 4 VMs, the paper's testbed
  const auto jc = workloads::make_job(workloads::stream_sort());

  core::MetaSchedulerOptions opts;
  opts.plan = core::PhasePlan::for_job(jc, cfg.n_hosts * cfg.vms_per_host);

  std::printf("sort, %d hosts x %d VMs, %lld MB per data node, %d phases (%.1f waves)\n\n",
              cfg.n_hosts, cfg.vms_per_host,
              static_cast<long long>(jc.input_bytes_per_vm / mapred::kMiB),
              opts.plan.count(),
              core::PhasePlan::waves(jc, cfg.n_hosts * cfg.vms_per_host));

  std::printf("step 1+2: profiling all 16 pairs, then Algorithm 1...\n");
  core::MetaScheduler ms(cfg, jc, opts);
  const core::MetaResult r = ms.optimize();
  for (const auto& e : r.profile) {
    std::printf("  profile %-28s total=%.1fs phases=[", e.pair.to_string().c_str(),
                e.total_seconds);
    for (std::size_t i = 0; i < e.phase_seconds.size(); ++i) {
      std::printf("%s%.1f", i ? ", " : "", e.phase_seconds[i]);
    }
    std::printf("]\n");
  }

  std::printf("\nresult\n------\n");
  std::printf("solution schedule   : %s%s\n", r.solution.to_string().c_str(),
              r.fell_back ? "  (fell back to single pair)" : "");
  std::printf("runtime switches    : %d\n", r.solution.switches());
  std::printf("heuristic evals     : %d full executions beyond profiling\n",
              r.heuristic_evaluations);
  std::printf("default (cfq, cfq)  : %7.1f s\n", r.default_seconds);
  std::printf("best single pair    : %7.1f s  %s\n", r.best_single_seconds,
              r.best_single.to_string().c_str());
  std::printf("adaptive            : %7.1f s\n", r.adaptive_seconds);
  std::printf("improvement         : %5.1f%% vs default (paper: up to 25%%), "
              "%.1f%% vs best single (paper: ~10%%)\n",
              100.0 * r.improvement_vs_default(),
              100.0 * r.improvement_vs_best_single());

  std::printf("\nadaptive run phases : map %.1fs | shuffle tail %.1fs | reduce %.1fs\n",
              r.adaptive_run.ph1_seconds, r.adaptive_run.ph2_seconds,
              r.adaptive_run.ph3_seconds);
  return 0;
}
