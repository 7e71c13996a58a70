// net::FlowNetwork allocates nothing in steady state: once a shuffle wave
// has grown the flow table and the water-fill arrays to their peak, an
// identical second wave — every start_flow, every re-leveling, every
// completion — runs without a single call to operator new. This binary
// replaces the global operator new to count calls; the completion callbacks
// capture one pointer, which std::function stores inline.
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

}  // namespace
}  // namespace iosim::net
