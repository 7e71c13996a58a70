#include "net/flow_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace iosim::net {

namespace {
/// A flow finishing within this many bytes is considered done (guards the
/// floating-point fluid model against scheduling zero-length epochs).
constexpr double kEpsilonBytes = 1.0;
}  // namespace

FlowNetwork::FlowNetwork(sim::Simulator& simr, int n_hosts, NetParams params)
    : simr_(simr), n_hosts_(n_hosts), params_(params), last_update_(simr.now()) {
  const auto n = static_cast<std::size_t>(n_hosts);
  links_.resize(3 * n, Link{params_.host_bw});
  for (std::size_t l = 2 * n; l < 3 * n; ++l) links_[l].cap = params_.loopback_bw;
}

double FlowNetwork::rate(FlowId id) const {
  const auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                                   [](const Flow& f, FlowId v) { return f.id < v; });
  return it == flows_.end() || it->id != id ? 0.0 : it->rate;
}

FlowId FlowNetwork::start_flow(int src, int dst, std::int64_t bytes,
                               std::function<void(Time)> on_done) {
  assert(src >= 0 && src < n_hosts_);
  assert(dst >= 0 && dst < n_hosts_);
  assert(bytes > 0);
  const Time now = simr_.now();
  advance(now);

  Flow f;
  f.id = next_id_++;
  if (src == dst) {
    f.up = static_cast<std::uint32_t>(2 * n_hosts_ + src);
    f.down = kNoLink;
  } else {
    f.up = static_cast<std::uint32_t>(src);
    f.down = static_cast<std::uint32_t>(n_hosts_ + dst);
  }
  f.total = static_cast<double>(bytes);
  f.remaining = static_cast<double>(bytes) +
                params_.flow_latency.sec() * params_.host_bw;  // latency as
  // an equivalent preamble so tiny flows still take ~flow_latency.
  f.on_done = std::move(on_done);
  const FlowId id = f.id;
  flows_.push_back(std::move(f));

  recompute_rates();
  schedule_next_completion(now);
  return id;
}

void FlowNetwork::advance(Time now) {
  const double dt = (now - last_update_).sec();
  last_update_ = now;
  if (dt <= 0.0) return;
  for (Flow& f : flows_) {
    f.remaining -= f.rate * dt;
    if (f.remaining < 0.0) f.remaining = 0.0;
  }
}

void FlowNetwork::recompute_rates() {
  // Water-filling max-min fairness over directed host links. Each round
  // fixes every unfixed flow on the bottleneck link — the smallest
  // (cap - used) / unfixed, lowest link index on a tie — at that share.
  // Every floating-point operation, and the order of the additions into
  // each link's `used`, matches the textbook loop over all links and all
  // flows in ascending id, so the rates are bit-identical to it.

  // Counting sort of flow indices by link. Flows are placed in ascending
  // id, so each link's bucket lists its flows in ascending id too.
  for (Link& lk : links_) {
    lk.used = 0.0;
    lk.unfixed = 0;  // doubles as the placement cursor
    lk.count = 0;
  }
  for (const Flow& f : flows_) {
    ++links_[f.up].count;
    if (f.down != kNoLink) ++links_[f.down].count;
  }
  busy_.clear();
  std::uint32_t placed = 0;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    links_[l].first = placed;
    placed += links_[l].count;
    if (links_[l].count != 0) busy_.push_back(static_cast<std::uint32_t>(l));
  }
  bucket_.resize(placed);
  const auto place = [this](std::uint32_t l, std::uint32_t flow) {
    Link& lk = links_[l];
    bucket_[lk.first + static_cast<std::uint32_t>(lk.unfixed++)] = flow;
  };
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i];
    place(f.up, static_cast<std::uint32_t>(i));
    if (f.down != kNoLink) place(f.down, static_cast<std::uint32_t>(i));
  }
  fixed_.assign(flows_.size(), 0);

  std::size_t remaining = flows_.size();
  while (remaining > 0) {
    // Find the bottleneck among the links that still carry unfixed flows,
    // dropping drained links from busy_ on the way (order is kept).
    double best_share = std::numeric_limits<double>::infinity();
    std::uint32_t best_link = kNoLink;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < busy_.size(); ++j) {
      const std::uint32_t l = busy_[j];
      const Link& lk = links_[l];
      if (lk.unfixed == 0) continue;
      busy_[kept++] = l;
      const double share = (lk.cap - lk.used) / lk.unfixed;
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    busy_.resize(kept);
    assert(best_link != kNoLink);
    if (best_share < 0.0) best_share = 0.0;

    // Fix every unfixed flow crossing the bottleneck at the fair share.
    const Link& bottleneck = links_[best_link];
    for (std::uint32_t k = bottleneck.first; k < bottleneck.first + bottleneck.count; ++k) {
      const std::uint32_t i = bucket_[k];
      if (fixed_[i]) continue;
      Flow& f = flows_[i];
      f.rate = best_share;
      fixed_[i] = 1;
      --remaining;
      links_[f.up].used += best_share;
      --links_[f.up].unfixed;
      if (f.down != kNoLink) {
        links_[f.down].used += best_share;
        --links_[f.down].unfixed;
      }
    }
  }
}

void FlowNetwork::schedule_next_completion(Time) {
  if (completion_ev_ != sim::kInvalidEvent) {
    simr_.cancel(completion_ev_);
    completion_ev_ = sim::kInvalidEvent;
  }
  if (flows_.empty()) return;

  double soonest = std::numeric_limits<double>::infinity();
  for (const Flow& f : flows_) {
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
    // Compact finished flows out in place, keeping ascending id. Their
    // callbacks run last, in that order: they may start new flows.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      Flow& f = flows_[i];
      if (f.remaining <= kEpsilonBytes) {
        bytes_delivered_ += static_cast<std::int64_t>(f.total);
        done_.push_back(std::move(f.on_done));
      } else {
        if (kept != i) flows_[kept] = std::move(f);
        ++kept;
      }
    }
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept), flows_.end());
    recompute_rates();
    schedule_next_completion(now2);
    for (auto& fn : done_) {
      if (fn) fn(now2);
    }
    done_.clear();
  });
}

}  // namespace iosim::net
