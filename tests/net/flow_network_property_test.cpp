// Max-min fairness properties of net::FlowNetwork, checked from first
// principles rather than against the reference water-fill: an all-to-all
// shuffle on 64 hosts (every ordered host pair, loopback included), with
// sizes drawn from five values so whole groups of flows finish together.
// After every event each active flow must have a bottleneck — a saturated
// link on its path on which no other flow gets a higher rate — flows that
// finish at one instant must report in ascending FlowId, and at the end
// every byte must be delivered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/flow_network.hpp"

namespace iosim::net {
namespace {

using sim::Time;

constexpr int kHosts = 64;
constexpr double kRel = 1e-9;

struct Started {
  FlowId id = 0;
  int src = 0;
  int dst = 0;
  bool live = true;
};

/// Link index of a flow's hops: [0, n) uplinks, [n, 2n) downlinks,
/// [2n, 3n) loopbacks.
std::vector<int> links_of(const Started& f) {
  if (f.src == f.dst) return {2 * kHosts + f.src};
  return {f.src, kHosts + f.dst};
}

/// Every live flow has a saturated link on its path where no other flow's
/// rate exceeds its own. Both comparisons allow 1e-9 relative: the fair
/// shares of successive water-fill rounds differ in the last bits.
void expect_max_min(const FlowNetwork& net, const std::vector<Started>& flows, Time now) {
  std::vector<double> cap(3 * kHosts, net.params().host_bw);
  std::fill(cap.begin() + 2 * kHosts, cap.end(), net.params().loopback_bw);
  std::vector<double> used(cap.size(), 0.0);
  std::vector<double> top(cap.size(), 0.0);  // highest rate on the link
  for (const Started& f : flows) {
    if (!f.live) continue;
    const double r = net.rate(f.id);
    for (const int l : links_of(f)) {
      used[static_cast<std::size_t>(l)] += r;
      top[static_cast<std::size_t>(l)] = std::max(top[static_cast<std::size_t>(l)], r);
    }
  }
  for (const Started& f : flows) {
    if (!f.live) continue;
    const double r = net.rate(f.id);
    bool bottlenecked = false;
    for (const int l : links_of(f)) {
      const auto li = static_cast<std::size_t>(l);
      const bool saturated = std::abs(used[li] - cap[li]) <= kRel * cap[li];
      if (saturated && top[li] <= r * (1 + kRel)) bottlenecked = true;
    }
    ASSERT_TRUE(bottlenecked) << "flow " << f.id << " (" << f.src << "->" << f.dst
                              << ") at rate " << r << " has no bottleneck at " << now.ns()
                              << " ns";
  }
}

TEST(FlowNetworkProperty, AllToAllOn64HostsIsMaxMinFair) {
  sim::Simulator simr;
  FlowNetwork net(simr, kHosts, NetParams{});
  std::vector<Started> flows;
  flows.reserve(kHosts * kHosts);
  std::vector<std::pair<std::int64_t, FlowId>> finished;  // (ns, id)
  std::int64_t total = 0;
  for (int src = 0; src < kHosts; ++src) {
    for (int dst = 0; dst < kHosts; ++dst) {
      const std::int64_t bytes = 200'000 * (1 + (src * 7 + dst * 13) % 5);
      const std::size_t slot = flows.size();
      flows.push_back({0, src, dst, true});
      flows[slot].id = net.start_flow(src, dst, bytes, [&flows, &finished, slot](Time t) {
        flows[slot].live = false;
        finished.emplace_back(t.ns(), flows[slot].id);
      });
      total += bytes;
    }
  }
  expect_max_min(net, flows, simr.now());
  if (HasFatalFailure()) return;
  std::uint64_t events = 0;
  while (simr.step()) {
    ++events;
    expect_max_min(net, flows, simr.now());
    if (HasFatalFailure()) return;
  }

  ASSERT_EQ(finished.size(), flows.size());
  std::size_t same_instant = 0;
  for (std::size_t i = 1; i < finished.size(); ++i) {
    if (finished[i].first != finished[i - 1].first) continue;
    ++same_instant;
    EXPECT_LT(finished[i - 1].second, finished[i].second) << "at " << finished[i].first << " ns";
  }
  EXPECT_GT(same_instant, flows.size() / 2);  // the size groups really tie
  EXPECT_LT(events, flows.size());
  EXPECT_EQ(net.bytes_delivered(), total);
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace iosim::net
