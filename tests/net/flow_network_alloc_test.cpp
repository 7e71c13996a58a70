// net::FlowNetwork allocates nothing in steady state: once a wave of flows
// has grown the flow table, the per-link flow lists and the water-fill's
// scratch lists (seed links, open links of the components) to their peak,
// an identical second wave — every start_flow, every re-leveling, every
// completion — runs without a single call to operator new. Two wave shapes:
// an all-to-all shuffle (one component) and many small components that a
// bridging flow merges and splits. This binary replaces the global operator
// new to count calls; the completion callbacks capture one pointer, which
// std::function stores inline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/flow_network.hpp"

namespace {
std::uint64_t g_news = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace iosim::net {
namespace {

constexpr int kHosts = 16;

/// Every ordered host pair, loopback included, with sizes from three values.
void start_wave(FlowNetwork& net, int* done) {
  for (int src = 0; src < kHosts; ++src) {
    for (int dst = 0; dst < kHosts; ++dst) {
      const std::int64_t bytes = 500'000 * (1 + (src + 3 * dst) % 3);
      net.start_flow(src, dst, bytes, [done](sim::Time) { ++*done; });
    }
  }
}

/// Twin flows h -> h+1 for every even h, finishing together in every
/// component at once, plus a loopback on each odd host; a bridging flow
/// 0 -> 3 started from the first completion merges two components and
/// splits them when it finishes.
void start_components(sim::Simulator& simr, FlowNetwork& net, int* done) {
  for (int h = 0; h + 1 < kHosts; h += 2) {
    net.start_flow(h, h + 1, 1'000'000, [done](sim::Time) { ++*done; });
    net.start_flow(h, h + 1, 1'000'000, [done](sim::Time) { ++*done; });
    net.start_flow(h + 1, h + 1, 300'000, [done](sim::Time) { ++*done; });
  }
  simr.after(sim::Time::from_ms(2), [&net, done] {
    net.start_flow(0, 3, 200'000, [done](sim::Time) { ++*done; });
  });
}

TEST(FlowNetworkAlloc, SecondWaveAllocatesNothing) {
  sim::Simulator simr;
  FlowNetwork net(simr, kHosts, NetParams{});
  int done = 0;
  start_wave(net, &done);
  simr.run();
  ASSERT_EQ(done, kHosts * kHosts);

  const std::uint64_t before = g_news;
  start_wave(net, &done);
  simr.run();
  const std::uint64_t news = g_news - before;
  ASSERT_EQ(done, 2 * kHosts * kHosts);
  EXPECT_EQ(news, 0u) << "operator new calls during the second wave";
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNetworkAlloc, SecondComponentWaveAllocatesNothing) {
  sim::Simulator simr;
  FlowNetwork net(simr, kHosts, NetParams{});
  int done = 0;
  start_components(simr, net, &done);
  simr.run();
  constexpr int kFlows = kHosts / 2 * 3 + 1;
  ASSERT_EQ(done, kFlows);

  const std::uint64_t before = g_news;
  start_components(simr, net, &done);
  simr.run();
  const std::uint64_t news = g_news - before;
  ASSERT_EQ(done, 2 * kFlows);
  EXPECT_EQ(news, 0u) << "operator new calls during the second wave";
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace iosim::net
