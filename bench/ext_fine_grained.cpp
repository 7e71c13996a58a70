// Extension (paper Section VII future work) — fine-grained per-host
// adaptive control vs the paper's coarse cluster-synchronized
// meta-scheduler.
//
// The coarse method "assumes that different stages are synchronized in
// each VM ... this assumption will not hold in the case of slow nodes"
// (Section IV-A). We therefore compare three policies on (a) the
// homogeneous testbed and (b) a heterogeneous one where two hosts have
// slower disks (stragglers desynchronize the phase boundary):
//   1. default fixed pair (cfq, cfq),
//   2. coarse adaptive (Algorithm 1 + cluster-wide switch at the boundary),
//   3. fine-grained (per-host regime detection from live Dom0 I/O counters,
//      switches gated by the switch-cost predictor).
#include "bench_util.hpp"
#include "core/fine_grained.hpp"
#include "core/meta_scheduler.hpp"

using namespace iosim;
using namespace iosim::bench;

namespace {

struct Scenario {
  const char* name;
  std::vector<double> host_speed;
};

void run_scenario(metrics::Table& tab, const Scenario& sc) {
  ClusterConfig cfg = paper_cluster();
  cfg.host_disk_speed = sc.host_speed;
  const auto jc = workloads::make_job(workloads::stream_sort());

  // 1. default
  const double def = cluster::run_job_avg(cfg, jc, kSeeds).seconds;

  // 2. coarse adaptive (full pipeline)
  core::MetaSchedulerOptions opts;
  opts.plan = core::PhasePlan::for_job(jc, cfg.n_hosts * cfg.vms_per_host);
  core::MetaScheduler ms(cfg, jc, opts);
  const auto meta = ms.optimize();

  // 3. fine-grained
  int switches = 0;
  double fine = 0;
  {
    ClusterConfig fcfg = cfg;
    fcfg.pair = meta.solution.initial();  // boot like the coarse solution
    double sum = 0;
    for (int s = 0; s < kSeeds; ++s) {
      ClusterConfig c = fcfg;
      c.seed = sim::derive_run_seed(fcfg.seed, static_cast<std::uint64_t>(s));
      std::shared_ptr<core::FineGrainedController> ctl;
      const auto r = cluster::run_job(c, jc, [&ctl](cluster::Cluster& cl, mapred::Job& job) {
        ctl = core::FineGrainedController::attach(cl, job);
      });
      sum += r.seconds;
      switches = ctl->total_switches();
    }
    fine = sum / kSeeds;
  }

  tab.row({sc.name, metrics::Table::num(def, 1), metrics::Table::num(meta.adaptive_seconds, 1),
           metrics::Table::num(fine, 1),
           metrics::Table::pct(100.0 * (1 - meta.adaptive_seconds / def), 1),
           metrics::Table::pct(100.0 * (1 - fine / def), 1), std::to_string(switches)});
  const std::string key = sc.host_speed.empty() ? "homogeneous" : "heterogeneous";
  report().add(key + ".default_seconds", def);
  report().add(key + ".coarse_seconds", meta.adaptive_seconds);
  report().add(key + ".fine_seconds", fine);
}

}  // namespace

int main(int argc, char** argv) {
  iosim::bench::Telemetry telemetry(argc, argv);
  print_header("Extension", "fine-grained per-host control vs coarse meta-scheduler");

  metrics::Table tab("sort, 4 hosts x 4 VMs (seconds)");
  tab.headers({"scenario", "default", "coarse adaptive", "fine-grained",
               "coarse vs def", "fine vs def", "fine switches"});

  run_scenario(tab, {"homogeneous", {}});
  run_scenario(tab, {"heterogeneous (2 slow hosts)", {1.0, 1.0, 0.8, 0.55}});
  tab.print();

  print_expectation(
      "the coarse method needs 16+ full profiling executions before it can "
      "act; the fine-grained controller reaches most of the same gain "
      "purely from online Dom0 counters (no profiling at all), and keeps "
      "working when straggler hosts desynchronize the global phase "
      "boundary — the scenario the paper names as motivating fine-grained "
      "control. Switches stay rare thanks to hysteresis and the cost-"
      "predictor gate.");
  return 0;
}
