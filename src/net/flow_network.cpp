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
  links_.resize(3 * n);
  open_.resize(3 * n + 1);
  for (std::size_t l = 0; l < 3 * n; ++l) {
    links_[l].cap = l < 2 * n ? params_.host_bw : params_.loopback_bw;
  }
}

double FlowNetwork::rate(FlowId id) const {
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), id,
      [this](std::uint32_t s, FlowId v) { return slots_[s].id < v; });
  return it == order_.end() || slots_[*it].id != id ? 0.0 : slots_[*it].rate;
}

FlowId FlowNetwork::start_flow(int src, int dst, std::int64_t bytes,
                               FlowDoneFn on_done) {
  assert(src >= 0 && src < n_hosts_);
  assert(dst >= 0 && dst < n_hosts_);
  assert(bytes > 0);
  const Time now = simr_.now();
  advance(now);

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    ends_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Flow& f = slots_[slot];
  Ends& e = ends_[slot];
  f.id = next_id_++;
  if (src == dst) {
    e.up = static_cast<std::uint32_t>(2 * n_hosts_ + src);
    e.down = kNoLink;
  } else {
    e.up = static_cast<std::uint32_t>(src);
    e.down = static_cast<std::uint32_t>(n_hosts_ + dst);
  }
  f.total = static_cast<double>(bytes);
  f.remaining = static_cast<double>(bytes) +
                params_.flow_latency.sec() * params_.host_bw;  // latency as
  // an equivalent preamble so tiny flows still take ~flow_latency.
  f.rate = 0.0;
  f.on_done = std::move(on_done);
  // The new flow has the largest id: appending keeps every list ascending.
  order_.push_back(slot);
  link(slot, e.up, e.down);
  if (e.down != kNoLink) link(slot, e.down, e.up);
  const FlowId id = f.id;

  recompute_rates();
  schedule_next_completion(now);
  return id;
}

void FlowNetwork::advance(Time now) {
  const double dt = (now - last_update_).sec();
  last_update_ = now;
  if (dt <= 0.0) return;
  for (const std::uint32_t s : order_) {
    Flow& f = slots_[s];
    f.remaining -= f.rate * dt;
    if (f.remaining < 0.0) f.remaining = 0.0;
  }
}

void FlowNetwork::link(std::uint32_t slot, std::uint32_t l, std::uint32_t other) {
  std::vector<Member>& fl = links_[l].flows;
  if (l < first_loopback()) {
    busy_host_links_ += fl.empty();
    ++host_link_flows_;
  }
  fl.push_back({slot, other});
  seeds_.push_back(l);
}

void FlowNetwork::unlink(std::uint32_t slot, std::uint32_t l) {
  std::vector<Member>& fl = links_[l].flows;
  fl.erase(std::find_if(fl.begin(), fl.end(), [slot](const Member& m) { return m.slot == slot; }));
  if (l < first_loopback()) {
    busy_host_links_ -= fl.empty();
    --host_link_flows_;
  }
  seeds_.push_back(l);
}

void FlowNetwork::recompute_rates() {
  // Water-filling max-min fairness over directed host links, restricted to
  // the connected components of the flow-link graph that contain a seed
  // link. Each round fixes every unfixed flow on the bottleneck link — the
  // smallest (cap - used) / unfixed, lowest link index on a tie — at that
  // share. A component's rates depend only on its own links, and inside
  // one component every floating-point operation, and the order of the
  // additions into every `used` that is read again, matches the textbook
  // loop over all links and all flows in ascending id; so the rates are
  // bit-identical to it, and a component without a seed already has them
  // (DESIGN.md §8.5).
  ++work_.relevels;
  ++stamp_;
  // open_ holds each link at most once, plus one scratch entry: an append
  // writes unconditionally and advances only for a new link, which keeps
  // an unpredictable branch out of the walk.
  std::size_t n_open = 0;
  const auto enter = [this, &n_open](std::uint32_t l) {
    Link& lk = links_[l];
    open_[n_open] = {0.0, l};
    n_open += lk.mark != stamp_;
    lk.mark = stamp_;
  };
  // A loopback link is a component of its own: it enters only as a seed.
  std::size_t loopback_open = 0;
  std::size_t remaining = 0;
  for (const std::uint32_t l : seeds_) {
    const std::size_t n = links_[l].flows.size();
    if (n == 0) continue;  // a seed its last flow just left
    const std::size_t before = n_open;
    enter(l);
    if (l >= first_loopback() && n_open != before) {
      ++loopback_open;
      remaining += n;
    }
  }
  seeds_.clear();
  // Breadth-first over host links, open_ doubling as the queue. Every flow
  // on a host link is listed on two of them, so it is counted twice. Once
  // every busy host link is in, the components hold every flow on one and
  // the walk can stop.
  std::size_t host_link_flows = 0;
  for (std::size_t j = 0; j < n_open && n_open - loopback_open < busy_host_links_; ++j) {
    const std::uint32_t l = open_[j].link;
    if (l >= first_loopback()) continue;
    const std::vector<Member>& fl = links_[l].flows;
    host_link_flows += fl.size();
    for (const Member& m : fl) enter(m.other);
  }
  remaining += (n_open - loopback_open == busy_host_links_ ? host_link_flows_
                                                           : host_link_flows) / 2;
  work_.flows_relevelled += remaining;
  for (std::size_t j = 0; j < n_open; ++j) {
    Open& o = open_[j];
    Link& lk = links_[o.link];
    lk.used = 0.0;
    lk.unfixed = static_cast<int>(lk.flows.size());
    lk.open = static_cast<std::uint32_t>(j);
    o.share = (lk.cap - lk.used) / lk.unfixed;
  }

  // A drained link leaves open_; the last entry takes its place.
  const auto close = [this, &n_open](const Link& lk) {
    const Open last = open_[--n_open];
    open_[lk.open] = last;
    links_[last.link].open = lk.open;
  };
  while (remaining > 0) {
    // The bottleneck among the open links. open_ is in no link order, so
    // the tie rule compares indices.
    ++work_.rounds;
    work_.link_visits += n_open;
    double best_share = std::numeric_limits<double>::infinity();
    std::uint32_t best_link = kNoLink;
    for (std::size_t j = 0; j < n_open; ++j) {
      const Open& o = open_[j];
      if (o.share < best_share || (o.share == best_share && o.link < best_link)) {
        best_share = o.share;
        best_link = o.link;
      }
    }
    assert(best_link != kNoLink);
    if (best_share < 0.0) best_share = 0.0;

    // Fix every unfixed flow crossing the bottleneck at the fair share,
    // adding it into the flow's other link and refreshing that link's
    // share. The bottleneck drains, so its own `used` is never read again.
    const Link& bottleneck = links_[best_link];
    for (const Member& m : bottleneck.flows) {
      Ends& e = ends_[m.slot];
      if (e.fixed_at == stamp_) continue;
      e.fixed_at = stamp_;
      slots_[m.slot].rate = best_share;
      --remaining;
      if (m.other == kNoLink) continue;  // loopback
      Link& lk = links_[m.other];
      lk.used += best_share;
      if (--lk.unfixed > 0) {
        open_[lk.open].share = (lk.cap - lk.used) / lk.unfixed;
      } else {
        close(lk);
      }
    }
    close(bottleneck);
  }
}

void FlowNetwork::schedule_next_completion(Time) {
  if (completion_ev_ != sim::kInvalidEvent) {
    simr_.cancel(completion_ev_);
    completion_ev_ = sim::kInvalidEvent;
  }
  if (order_.empty()) return;

  double soonest = std::numeric_limits<double>::infinity();
  for (const std::uint32_t s : order_) {
    const Flow& f = slots_[s];
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
    for (const std::uint32_t s : order_) {
      Flow& f = slots_[s];
      if (f.remaining <= kEpsilonBytes) {
        bytes_delivered_ += static_cast<std::int64_t>(f.total);
        done_.push_back(std::move(f.on_done));
        unlink(s, ends_[s].up);
        if (ends_[s].down != kNoLink) unlink(s, ends_[s].down);
        free_slots_.push_back(s);
      } else {
        order_[kept++] = s;
      }
    }
    order_.resize(kept);
    recompute_rates();
    schedule_next_completion(now2);
    for (auto& fn : done_) {
      if (fn) fn(now2);
    }
    done_.clear();
  });
}

}  // namespace iosim::net
