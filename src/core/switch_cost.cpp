#include "core/switch_cost.hpp"

#include <algorithm>
#include <cmath>

#include "workloads/microbench.hpp"

namespace iosim::core {

double run_dd_experiment(const SwitchCostConfig& cfg, SchedulerPair from,
                         const SchedulerPair* to) {
  sim::Simulator simr;
  virt::HostConfig hc = cfg.host;
  hc.dom0_blk.scheduler = from.vmm;
  hc.domu.guest_blk.scheduler = from.guest;
  virt::PhysicalHost host(simr, hc, /*host_id=*/0, /*vm_ctx_base=*/0, cfg.seed);
  for (int v = 0; v < cfg.vms; ++v) host.add_vm();

  workloads::SeqWriteParams p = workloads::dd_params(cfg.dd_bytes_per_vm);

  bool switched = false;
  if (to != nullptr) {
    p.on_progress = [&host, to, &switched](std::int64_t done, std::int64_t total) {
      if (!switched && done * 2 >= total) {
        switched = true;
        host.set_pair(*to);
      }
    };
  }

  const auto res = workloads::run_seq_writers(simr, host, p);
  return res.elapsed.sec();
}

SwitchCostMatrix SwitchCostMatrix::measure(const SwitchCostConfig& cfg) {
  SwitchCostMatrix m;
  const auto pairs = iosched::all_scheduler_pairs();

  for (const auto& p : pairs) {
    m.solo_[static_cast<std::size_t>(p.index())] =
        run_dd_experiment(cfg, p, nullptr);
  }
  for (const auto& a : pairs) {
    // The diagonal is measured too: a == b is the bare cost of the switch
    // command.
    for (const auto& b : pairs) {
      const double t_both = run_dd_experiment(cfg, a, &b);
      const double base = 0.5 * (m.solo_[static_cast<std::size_t>(a.index())] +
                                 m.solo_[static_cast<std::size_t>(b.index())]);
      m.cost_[static_cast<std::size_t>(a.index())]
             [static_cast<std::size_t>(b.index())] = t_both - base;
    }
  }
  return m;
}

double SwitchCostMatrix::min_cost() const {
  double v = cost_[0][0];
  for (const auto& row : cost_)
    for (double c : row) v = std::min(v, c);
  return v;
}

double SwitchCostMatrix::max_cost() const {
  double v = cost_[0][0];
  for (const auto& row : cost_)
    for (double c : row) v = std::max(v, c);
  return v;
}

double SwitchCostMatrix::mean_cost() const {
  double s = 0.0;
  for (const auto& row : cost_)
    for (double c : row) s += c;
  return s / (kNumSchedulerPairs * kNumSchedulerPairs);
}

double SwitchCostMatrix::mean_asymmetry() const {
  double s = 0.0;
  int n = 0;
  for (int a = 0; a < kNumSchedulerPairs; ++a) {
    for (int b = a + 1; b < kNumSchedulerPairs; ++b) {
      s += std::fabs(cost_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] -
                     cost_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)]);
      ++n;
    }
  }
  return n ? s / n : 0.0;
}

}  // namespace iosim::core
