// The split-driver path allocates (almost) nothing per guest request in
// steady state: once two waves of guest writes have grown the block-layer
// request pools, the ring's FIFOs and the simulator arena to their peak, an
// identical third wave — guest layer, blkfront ring, Dom0 layer, disk — may
// only allocate what the noop elevator's std::deque does when it steps to a
// new block, far fewer calls than there are guest requests. This binary
// replaces the global operator new to count calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "virt/physical_host.hpp"

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

namespace iosim::virt {
namespace {

constexpr int kWaveBios = 64;
constexpr std::int64_t kSectors = 512;

void submit_wave(DomU& vm, int* done) {
  for (int i = 0; i < kWaveBios; ++i) {
    vm.submit_io(7, i * 2 * kSectors, kSectors, iosched::Dir::kWrite, false,
                 [done](sim::Time, iosched::IoStatus) { ++*done; });
  }
}

TEST(RingAlloc, ThirdWaveAllocatesLessThanOncePerRequest) {
  sim::Simulator simr;
  HostConfig cfg;
  cfg.dom0_blk.scheduler = iosched::SchedulerKind::kNoop;
  cfg.domu.guest_blk.scheduler = iosched::SchedulerKind::kNoop;
  PhysicalHost host(simr, cfg, 0, /*vm_ctx_base=*/100, /*seed=*/7);
  DomU& vm = host.add_vm();
  int done = 0;
  for (int wave = 0; wave < 2; ++wave) {
    submit_wave(vm, &done);
    simr.run();
  }
  ASSERT_EQ(done, 2 * kWaveBios);

  const std::uint64_t before = g_news;
  submit_wave(vm, &done);
  simr.run();
  const std::uint64_t news = g_news - before;
  ASSERT_EQ(done, 3 * kWaveBios);
  EXPECT_LT(news, static_cast<std::uint64_t>(kWaveBios))
      << "operator new calls during the third wave";
  std::printf("operator new calls in the third wave: %llu\n",
              static_cast<unsigned long long>(news));
}

}  // namespace
}  // namespace iosim::virt
