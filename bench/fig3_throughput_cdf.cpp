// Fig. 3 — CDFs of the I/O throughput observed in the VMM (Dom0) and in
// the VMs of one physical machine while running sort, under (cfq, cfq)
// versus (anticipatory, deadline).
//
// Shapes: the anticipatory VMM achieves the higher maximum and mean Dom0
// throughput (paper: max 184 vs 159 MB/s, mean 52.3 vs 47.1 MB/s); the
// (anticipatory, deadline) VMs see higher mean per-VM throughput, while
// (cfq, cfq) spreads throughput more evenly across the VMs (better
// fairness).
//
// Measured as on the testbed: an iostat sampler's 1 s windows on host 0's
// Dom0 layer give the CDF (nearest-rank percentiles); each guest layer's
// completed bytes over the job's seconds give the per-VM means; the
// attribution waterfall gives host 0's guest-read latency.
//
// Self-check: exits 1 unless (anticipatory, deadline)'s mean Dom0
// throughput is above (cfq, cfq)'s. The VM-fairness ordering is printed
// but not checked (EXPERIMENTS.md lists it as unresolved).
#include <numeric>

#include "bench_util.hpp"
#include "metrics/iostat_sampler.hpp"
#include "obs/attribution.hpp"
#include "sim/stats.hpp"

using namespace iosim;
using namespace iosim::bench;

namespace {

struct CdfResult {
  std::vector<double> dom0;  // MB/s of each 1 s iostat window, read + write
  std::vector<double> vm_mean_mb_s;
  double elapsed = 0;
  obs::QuantileSketch read_elv_wait;  // ns, host 0's guest reads
  obs::QuantileSketch read_total;
};

CdfResult run_with(SchedulerPair pair) {
  ClusterConfig cfg = paper_cluster();
  cfg.pair = pair;
  const auto jc = workloads::make_job(workloads::stream_sort());

  CdfResult out;
  obs::AttributionSession attr;
  (void)cluster::run_job(cfg, jc, [&out](cluster::Cluster& cl, mapred::Job& job) {
    // Observe host 0: iostat windows on its Dom0 layer, bytes on its guests.
    virt::PhysicalHost& host = cl.host(0);
    auto sampler = std::make_shared<metrics::IostatSampler>(cl.simr());
    sampler->watch(host.dom0_layer());
    // The first tick after the job ends records the last, partial window.
    sampler->stop_when([&out, &job, s = sampler.get()] {
      if (!job.done()) return false;
      for (const auto& w : s->series(0)) out.dom0.push_back(w.read_mb_s + w.write_mb_s);
      return true;
    });
    sampler->start();
    // The hook owns the sampler, so it dies with the job, before the
    // simulator it has a tick pending on.
    job.on_done = [&out, &host, sampler](sim::Time t) {
      out.elapsed = t.sec();
      for (std::size_t v = 0; v < host.vm_count(); ++v) {
        const auto& c = host.vm(v).layer().counters();
        const auto bytes = c.bytes_completed[0] + c.bytes_completed[1];
        out.vm_mean_mb_s.push_back(static_cast<double>(bytes) / out.elapsed / 1e6);
      }
    };
  });
  const obs::Attribution& at = attr.attribution();
  for (std::size_t i = 0; i < at.n_keys(); ++i) {
    const obs::AttrKey& k = at.key_at(i);
    if (k.host != 0 || k.dir != 0) continue;
    out.read_elv_wait.merge(at.lane(i, obs::Lane::kElvWait));
    out.read_total.merge(at.lane(i, obs::Lane::kTotal));
  }
  return out;
}

double pct(const std::vector<double>& xs, double p) {
  return sim::percentile_nearest_rank(xs, p);
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : std::accumulate(xs.begin(), xs.end(), 0.0) /
                                static_cast<double>(xs.size());
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

void print_cdf_summary(const char* label, const CdfResult& r, const char* key) {
  std::printf("\n%s (job %.1fs)\n", label, r.elapsed);
  const std::string k(key);
  report().add(k + ".job_seconds", r.elapsed);
  report().add(k + ".dom0_mean_mb_s", mean(r.dom0));
  report().add(k + ".dom0_max_mb_s", pct(r.dom0, 1.0));
  report().add(k + ".vm_fairness", sim::jain_fairness(r.vm_mean_mb_s));
  report().add(k + ".read_elv_wait_p99_ms", ms(r.read_elv_wait.quantile(0.99)));
  report().add(k + ".read_total_p99_ms", ms(r.read_total.quantile(0.99)));
  metrics::Table tab("Dom0 I/O throughput CDF (1s windows, MB/s)");
  tab.headers({"p10", "p25", "p50", "p75", "p90", "max", "mean"});
  tab.row({metrics::Table::num(pct(r.dom0, 0.10), 1), metrics::Table::num(pct(r.dom0, 0.25), 1),
           metrics::Table::num(pct(r.dom0, 0.50), 1), metrics::Table::num(pct(r.dom0, 0.75), 1),
           metrics::Table::num(pct(r.dom0, 0.90), 1), metrics::Table::num(pct(r.dom0, 1.0), 1),
           metrics::Table::num(mean(r.dom0), 1)});
  tab.print();

  std::printf("per-VM mean throughput over the job (MB/s):");
  for (double v : r.vm_mean_mb_s) std::printf(" %.2f", v);
  std::printf("  | avg %.2f | Jain fairness %.3f\n", mean(r.vm_mean_mb_s),
              sim::jain_fairness(r.vm_mean_mb_s));
  std::printf("guest read latency (host 0): Dom0 elevator wait p50 %.1f / p99 %.1f ms, "
              "end to end p50 %.1f / p99 %.1f ms\n",
              ms(r.read_elv_wait.quantile(0.5)), ms(r.read_elv_wait.quantile(0.99)),
              ms(r.read_total.quantile(0.5)), ms(r.read_total.quantile(0.99)));
}

}  // namespace

int main(int argc, char** argv) {
  iosim::bench::Telemetry telemetry(argc, argv);
  print_header("Fig 3", "I/O throughput CDFs in VMM and VMs during sort (host 0)");

  const CdfResult cc = run_with(iosched::kDefaultPair);
  const CdfResult ad =
      run_with({SchedulerKind::kAnticipatory, SchedulerKind::kDeadline});

  print_cdf_summary("(cfq, cfq)", cc, "cc");
  print_cdf_summary("(anticipatory, deadline)", ad, "ad");

  std::printf("\nDom0 mean MB/s: (a,d) %.1f vs (c,c) %.1f  (paper: 52.3 vs 47.1)\n",
              mean(ad.dom0), mean(cc.dom0));
  std::printf("Dom0 max  MB/s: (a,d) %.1f vs (c,c) %.1f  (paper: 184 vs 159)\n",
              pct(ad.dom0, 1.0), pct(cc.dom0, 1.0));
  std::printf("VM fairness   : (c,c) %.3f vs (a,d) %.3f  (paper: cfq fairer)\n",
              sim::jain_fairness(cc.vm_mean_mb_s), sim::jain_fairness(ad.vm_mean_mb_s));
  print_expectation(
      "(anticipatory, deadline) achieves the better overall throughput while "
      "(cfq, cfq) achieves better fairness amongst the VMs.");

  if (!(mean(ad.dom0) > mean(cc.dom0))) {
    std::fprintf(stderr,
                 "fig3_throughput_cdf: (a,d) mean Dom0 throughput %.3f MB/s is not above "
                 "(c,c)'s %.3f MB/s\n",
                 mean(ad.dom0), mean(cc.dom0));
    return 1;
  }
  return 0;
}
