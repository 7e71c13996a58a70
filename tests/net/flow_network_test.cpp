#include "net/flow_network.hpp"

#include <gtest/gtest.h>

namespace iosim::net {
namespace {

using namespace iosim::sim::literals;
using sim::Time;

NetParams fast_latency() {
  NetParams p;
  p.flow_latency = Time::zero();
  return p;
}

TEST(FlowNetwork, SingleFlowRunsAtLineRate) {
  sim::Simulator simr;
  FlowNetwork net(simr, 2, fast_latency());
  Time done;
  const std::int64_t bytes = 117'000'000;  // 1 second at line rate
  net.start_flow(0, 1, bytes, [&](Time t) { done = t; });
  simr.run();
  EXPECT_NEAR(done.sec(), 1.0, 0.01);
  EXPECT_EQ(net.bytes_delivered(), bytes);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNetwork, TwoFlowsOnSameUplinkShare) {
  sim::Simulator simr;
  FlowNetwork net(simr, 3, fast_latency());
  Time d1, d2;
  const std::int64_t bytes = 58'500'000;  // 0.5s alone, 1s shared
  net.start_flow(0, 1, bytes, [&](Time t) { d1 = t; });
  net.start_flow(0, 2, bytes, [&](Time t) { d2 = t; });
  simr.run();
  EXPECT_NEAR(d1.sec(), 1.0, 0.02);
  EXPECT_NEAR(d2.sec(), 1.0, 0.02);
}

TEST(FlowNetwork, DisjointPairsDoNotInterfere) {
  sim::Simulator simr;
  FlowNetwork net(simr, 4, fast_latency());
  Time d1, d2;
  const std::int64_t bytes = 117'000'000;
  net.start_flow(0, 1, bytes, [&](Time t) { d1 = t; });
  net.start_flow(2, 3, bytes, [&](Time t) { d2 = t; });
  simr.run();
  EXPECT_NEAR(d1.sec(), 1.0, 0.01);
  EXPECT_NEAR(d2.sec(), 1.0, 0.01);
}

TEST(FlowNetwork, DownlinkIsABottleneckToo) {
  sim::Simulator simr;
  FlowNetwork net(simr, 3, fast_latency());
  Time d1, d2;
  const std::int64_t bytes = 58'500'000;
  // Two different sources into ONE destination: share the downlink.
  net.start_flow(0, 2, bytes, [&](Time t) { d1 = t; });
  net.start_flow(1, 2, bytes, [&](Time t) { d2 = t; });
  simr.run();
  EXPECT_NEAR(d1.sec(), 1.0, 0.02);
  EXPECT_NEAR(d2.sec(), 1.0, 0.02);
}

TEST(FlowNetwork, LoopbackIsFasterThanNic) {
  sim::Simulator simr;
  NetParams p = fast_latency();
  FlowNetwork net(simr, 2, p);
  Time d_loop, d_net;
  const std::int64_t bytes = 100'000'000;
  net.start_flow(0, 0, bytes, [&](Time t) { d_loop = t; });
  simr.run();
  sim::Simulator simr2;
  FlowNetwork net2(simr2, 2, p);
  net2.start_flow(0, 1, bytes, [&](Time t) { d_net = t; });
  simr2.run();
  EXPECT_LT(d_loop, d_net);
  EXPECT_NEAR(d_loop.sec(), bytes / p.loopback_bw, 0.01);
}

TEST(FlowNetwork, LateFlowSpeedsUpAfterFirstCompletes) {
  sim::Simulator simr;
  FlowNetwork net(simr, 2, fast_latency());
  Time d_small, d_big;
  net.start_flow(0, 1, 11'700'000, [&](Time t) { d_small = t; });   // 0.1s alone
  net.start_flow(0, 1, 117'000'000, [&](Time t) { d_big = t; });    // 1s alone
  simr.run();
  // Shared until the small one finishes (~0.2s), then the big one gets the
  // full link: total ≈ 0.2 + (1 - 0.1) = 1.1s.
  EXPECT_NEAR(d_small.sec(), 0.2, 0.02);
  EXPECT_NEAR(d_big.sec(), 1.1, 0.03);
}

TEST(FlowNetwork, FlowLatencyDelaysTinyFlows) {
  sim::Simulator simr;
  NetParams p;  // default latency 1 ms
  FlowNetwork net(simr, 2, p);
  Time done;
  net.start_flow(0, 1, 100, [&](Time t) { done = t; });
  simr.run();
  EXPECT_GE(done, Time::from_ms(1));
  EXPECT_LT(done, Time::from_ms(5));
}

TEST(FlowNetwork, ManyFlowsAllComplete) {
  sim::Simulator simr;
  FlowNetwork net(simr, 4, fast_latency());
  int done = 0;
  std::int64_t total = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t b = 1'000'000 + i * 31'337;
    total += b;
    net.start_flow(i % 4, (i + 1 + i / 4) % 4, b, [&](Time) { ++done; });
  }
  simr.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(net.bytes_delivered(), total);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNetwork, CallbackCanStartNewFlow) {
  sim::Simulator simr;
  FlowNetwork net(simr, 2, fast_latency());
  int hops = 0;
  std::function<void(Time)> hop = [&](Time) {
    if (++hops < 5) net.start_flow(hops % 2, (hops + 1) % 2, 1'000'000, hop);
  };
  net.start_flow(0, 1, 1'000'000, hop);
  simr.run();
  EXPECT_EQ(hops, 5);
}

TEST(FlowNetwork, MaxMinIsWorkConserving) {
  // 3 flows: A 0->1, B 0->1, C 2->1. Downlink of 1 is the bottleneck for
  // all three; each should get ~1/3 of it, so the uplink of 0 is not full.
  sim::Simulator simr;
  FlowNetwork net(simr, 3, fast_latency());
  std::vector<Time> done(3);
  const std::int64_t bytes = 39'000'000;  // 1/3 of link => 1s each
  net.start_flow(0, 1, bytes, [&](Time t) { done[0] = t; });
  net.start_flow(0, 1, bytes, [&](Time t) { done[1] = t; });
  net.start_flow(2, 1, bytes, [&](Time t) { done[2] = t; });
  simr.run();
  for (const Time& t : done) EXPECT_NEAR(t.sec(), 1.0, 0.03);
}

TEST(FlowNetwork, ReLevelsOnlyTheComponentsAFlowTouches) {
  // Flows are edges between links; a start or a finish re-levels the
  // connected components that contain its links and nothing else.
  sim::Simulator simr;
  FlowNetwork net(simr, 8, fast_latency());
  std::uint64_t seen = 0;
  const auto relevelled = [&net, &seen] {
    const std::uint64_t d = net.work().flows_relevelled - seen;
    seen = net.work().flows_relevelled;
    return d;
  };
  const std::int64_t mb10 = 10'000'000;
  net.start_flow(0, 1, mb10, nullptr);  // A: up0, down1
  EXPECT_EQ(relevelled(), 1u);
  net.start_flow(2, 1, mb10, nullptr);  // A grows: up2
  EXPECT_EQ(relevelled(), 2u);
  net.start_flow(4, 5, mb10, nullptr);  // B: up4, down5
  EXPECT_EQ(relevelled(), 1u);
  net.start_flow(7, 7, 10 * mb10, nullptr);  // a loopback of its own
  EXPECT_EQ(relevelled(), 1u);
  std::uint64_t at_bridge_done = 0;
  net.start_flow(0, 5, 100'000, [&](Time) { at_bridge_done = relevelled(); });
  EXPECT_EQ(relevelled(), 4u);  // the bridge merges A and B
  net.start_flow(6, 3, mb10, nullptr);  // C
  EXPECT_EQ(relevelled(), 1u);
  EXPECT_EQ(net.work().relevels, 6u);

  simr.run();
  EXPECT_EQ(at_bridge_done, 3u);  // its finish splits A and B again
  EXPECT_EQ(net.active_flows(), 0u);
  // One re-level per start and per completion event. A's two flows always
  // run at the same rate, so they finish in one event.
  EXPECT_EQ(net.work().relevels, 11u);
  EXPECT_GE(net.work().rounds, net.work().relevels - 1);
  EXPECT_GE(net.work().link_visits, net.work().rounds);
}

}  // namespace
}  // namespace iosim::net
