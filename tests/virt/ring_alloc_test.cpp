// The split-driver path allocates nothing per guest request in steady
// state, under every elevator: once two waves of guest writes have grown
// the block-layer request pools, the elevators' sorted queues and FIFOs,
// the ring's FIFOs and the simulator arena to their peak, an identical
// third wave — guest layer, blkfront ring, Dom0 layer, disk — makes no
// allocation at all. Runs once per pair with the same elevator in the
// guest and in Dom0: (cc), (dd), (aa), (nn). This binary replaces the
// global operator new to count calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "iosched/pair.hpp"
#include "virt/physical_host.hpp"

namespace {
std::uint64_t g_news = 0;
}  // namespace

// Not inlined: gtest's parameterized-test registration news and deletes in
// one function, and once a replacement is inlined there GCC's
// -Wmismatched-new-delete mistakes malloc/free for a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

/// The elevator of the parameter, in guest and in Dom0.
iosched::SchedulerKind kind_of(int param) {
  return static_cast<iosched::SchedulerKind>(param);
}

/// "nn", "dd", "aa", "cc".
std::string pair_letters(int param) {
  return iosched::SchedulerPair{kind_of(param), kind_of(param)}.letters();
}

class RingAlloc : public ::testing::TestWithParam<int> {};

TEST_P(RingAlloc, ThirdWaveAllocatesNothing) {
  sim::Simulator simr;
  HostConfig cfg;
  cfg.dom0_blk.scheduler = kind_of(GetParam());
  cfg.domu.guest_blk.scheduler = kind_of(GetParam());
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
  EXPECT_EQ(news, 0u) << "operator new calls during the third wave";
  std::printf("operator new calls in the third wave: %llu\n",
              static_cast<unsigned long long>(news));
}

INSTANTIATE_TEST_SUITE_P(SameElevator, RingAlloc,
                         ::testing::Range(0, iosched::kNumSchedulerKinds),
                         [](const auto& pinfo) {
                           return pair_letters(pinfo.param);
                         });

}  // namespace
}  // namespace iosim::virt
