// Example: run one sort job and dump a CSV trace of Dom0 I/O throughput
// (1-second windows, per host) plus the job's phase boundaries — the raw
// material for the paper's Fig. 3/Fig. 4 style plots.
//
// Usage: cluster_trace [pair] [output.csv]
//   pair: two letters, VMM then VM, from {n,d,a,c} — e.g. "ad" for
//         (anticipatory, deadline). Default: "cc".
#include <cstdio>
#include <string>

#include "cluster/runner.hpp"
#include "metrics/iostat_sampler.hpp"
#include "workloads/benchmarks.hpp"

using namespace iosim;

int main(int argc, char** argv) {
  const std::string pair_str = argc > 1 ? argv[1] : "cc";
  const std::string out_path = argc > 2 ? argv[2] : "trace.csv";
  const auto pair = iosched::SchedulerPair::from_letters(pair_str);
  if (!pair) {
    std::fprintf(stderr, "pair must be two letters from {n,d,a,c}, got '%s'\n",
                 pair_str.c_str());
    return 1;
  }

  cluster::ClusterConfig cfg;
  cfg.pair = *pair;
  const auto jc = workloads::make_job(workloads::stream_sort());

  std::vector<std::vector<double>> host_series;
  sim::Time t_maps, t_shuffle, t_done;
  const auto r = cluster::run_job(cfg, jc, [&](cluster::Cluster& cl, mapred::Job& job) {
    auto sampler = std::make_shared<metrics::IostatSampler>(cl.simr());
    for (std::size_t h = 0; h < cl.n_hosts(); ++h) sampler->watch(cl.host(h).dom0_layer());
    // The first tick after the job ends records the last, partial window.
    sampler->stop_when([&, s = sampler.get()] {
      if (!job.done()) return false;
      for (std::size_t h = 0; h < s->n_layers(); ++h) {
        auto& series = host_series.emplace_back();
        for (const auto& w : s->series(h)) series.push_back(w.read_mb_s + w.write_mb_s);
      }
      return true;
    });
    sampler->start();
    // The hook owns the sampler, so it dies with the job, before the
    // simulator it has a tick pending on.
    job.on_done = [&t_done, sampler](sim::Time t) { t_done = t; };
  });
  t_maps = r.stats.t_maps_done;
  t_shuffle = r.stats.t_shuffle_done;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "second");
  for (std::size_t h = 0; h < host_series.size(); ++h) {
    std::fprintf(out, ",host%zu_mb_s", h);
  }
  std::fprintf(out, "\n");
  std::size_t n = 0;
  for (const auto& s : host_series) n = std::max(n, s.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(out, "%zu", i);
    for (const auto& s : host_series) {
      std::fprintf(out, ",%.2f", i < s.size() ? s[i] : 0.0);
    }
    std::fprintf(out, "\n");
  }
  std::fclose(out);

  std::printf("pair %s: job %.1fs (maps done %.1fs, shuffle done %.1fs)\n",
              cfg.pair.to_string().c_str(), r.seconds, t_maps.sec(), t_shuffle.sec());
  std::printf("wrote %zu seconds x %zu hosts of Dom0 throughput to %s\n", n,
              host_series.size(), out_path.c_str());
  std::printf("phase boundaries for plotting: ph1 end = %.1f, ph2 end = %.1f, job end = %.1f\n",
              t_maps.sec(), t_shuffle.sec(), t_done.sec());
  return 0;
}
