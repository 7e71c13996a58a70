#include "water_fill_oracle.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace iosim::net::oracle {

namespace {
/// A flow finishing within this many bytes is considered done (guards the
/// floating-point fluid model against scheduling zero-length epochs).
constexpr double kEpsilonBytes = 1.0;
}  // namespace

WaterFillOracle::WaterFillOracle(sim::Simulator& simr, int n_hosts, NetParams params)
    : simr_(simr), n_hosts_(n_hosts), params_(params), last_update_(simr.now()) {}

double WaterFillOracle::rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

FlowId WaterFillOracle::start_flow(int src, int dst, std::int64_t bytes,
                               std::function<void(Time)> on_done) {
  assert(src >= 0 && src < n_hosts_);
  assert(dst >= 0 && dst < n_hosts_);
  assert(bytes > 0);
  const Time now = simr_.now();
  advance(now);

  Flow f;
  f.id = next_id_++;
  f.src = src;
  f.dst = dst;
  f.total = static_cast<double>(bytes);
  f.remaining = static_cast<double>(bytes) +
                params_.flow_latency.sec() * params_.host_bw;  // latency as
  // an equivalent preamble so tiny flows still take ~flow_latency.
  f.on_done = std::move(on_done);
  const FlowId id = f.id;
  flows_.emplace(id, std::move(f));

  recompute_rates();
  schedule_next_completion(now);
  return id;
}

void WaterFillOracle::advance(Time now) {
  const double dt = (now - last_update_).sec();
  last_update_ = now;
  if (dt <= 0.0) return;
  for (auto& [id, f] : flows_) {
    (void)id;
    f.remaining -= f.rate * dt;
    if (f.remaining < 0.0) f.remaining = 0.0;
  }
}

void WaterFillOracle::recompute_rates() {
  // Water-filling max-min fairness over directed host links. Loopback flows
  // use a per-host loopback link instead of up/down.
  struct Link {
    double cap;
    std::vector<Flow*> flows;
  };
  // Links: [0, n) uplinks, [n, 2n) downlinks, [2n, 3n) loopbacks.
  std::vector<Link> links(static_cast<std::size_t>(3 * n_hosts_));
  for (int h = 0; h < n_hosts_; ++h) {
    links[static_cast<std::size_t>(h)].cap = params_.host_bw;
    links[static_cast<std::size_t>(n_hosts_ + h)].cap = params_.host_bw;
    links[static_cast<std::size_t>(2 * n_hosts_ + h)].cap = params_.loopback_bw;
  }
  std::vector<std::vector<std::size_t>> flow_links;
  std::vector<Flow*> active;
  for (auto& [id, f] : flows_) {
    (void)id;
    f.rate = 0.0;
    active.push_back(&f);
    std::vector<std::size_t> ls;
    if (f.src == f.dst) {
      ls.push_back(static_cast<std::size_t>(2 * n_hosts_ + f.src));
    } else {
      ls.push_back(static_cast<std::size_t>(f.src));
      ls.push_back(static_cast<std::size_t>(n_hosts_ + f.dst));
    }
    for (std::size_t l : ls) links[l].flows.push_back(&f);
    flow_links.push_back(std::move(ls));
  }

  std::vector<bool> fixed(active.size(), false);
  std::vector<double> link_used(links.size(), 0.0);
  std::vector<int> link_unfixed(links.size(), 0);
  for (std::size_t l = 0; l < links.size(); ++l) {
    link_unfixed[l] = static_cast<int>(links[l].flows.size());
  }

  std::size_t remaining = active.size();
  while (remaining > 0) {
    // Find the bottleneck link: smallest fair share among links with
    // unfixed flows.
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = links.size();
    for (std::size_t l = 0; l < links.size(); ++l) {
      if (link_unfixed[l] == 0) continue;
      const double share = (links[l].cap - link_used[l]) / link_unfixed[l];
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    assert(best_link < links.size());
    if (best_share < 0.0) best_share = 0.0;

    // Fix every unfixed flow crossing the bottleneck at the fair share.
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (fixed[i]) continue;
      bool on_bottleneck = false;
      for (std::size_t l : flow_links[i]) {
        if (l == best_link) {
          on_bottleneck = true;
          break;
        }
      }
      if (!on_bottleneck) continue;
      active[i]->rate = best_share;
      fixed[i] = true;
      --remaining;
      for (std::size_t l : flow_links[i]) {
        link_used[l] += best_share;
        --link_unfixed[l];
      }
    }
  }
}

void WaterFillOracle::schedule_next_completion(Time) {
  if (completion_ev_ != sim::kInvalidEvent) {
    simr_.cancel(completion_ev_);
    completion_ev_ = sim::kInvalidEvent;
  }
  if (flows_.empty()) return;

  double soonest = std::numeric_limits<double>::infinity();
  for (const auto& [id, f] : flows_) {
    (void)id;
    if (f.rate <= 0.0) continue;
    soonest = std::min(soonest, std::max(0.0, f.remaining - kEpsilonBytes) / f.rate);
  }
  if (!std::isfinite(soonest)) return;  // all rates zero: nothing will finish

  // +1 ns: the float->integer rounding must never schedule a zero-length
  // epoch, or the fluid model would spin at one timestamp forever.
  completion_ev_ = simr_.after(Time::from_sec_f(soonest) + Time::from_ns(1), [this] {
    completion_ev_ = sim::kInvalidEvent;
    const Time now2 = simr_.now();
    advance(now2);
    // Collect finished flows first: their callbacks may start new flows.
    std::vector<std::function<void(Time)>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.remaining <= kEpsilonBytes) {
        bytes_delivered_ += static_cast<std::int64_t>(it->second.total);
        done.push_back(std::move(it->second.on_done));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    recompute_rates();
    schedule_next_completion(now2);
    for (auto& fn : done) {
      if (fn) fn(now2);
    }
  });
}

}  // namespace iosim::net::oracle
