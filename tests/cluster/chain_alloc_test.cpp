// Allocations follow tasks, not I/O events: a two-job sort chain on a 2x2
// cluster, counted from the second job's start to its completion, at an I/O
// unit of 256 KiB and of 64 KiB. The finer unit quadruples the bios,
// requests, ring segments, disk events and merge-pass CPU bursts; the count
// must stay that of the job's tasks and their bookkeeping.
//
// The first job is the warm-up: 16 times the second's input, so the pools
// (block-layer requests and their completion lists, I/O streams, elevator
// queues, link flow lists, the event arena) are near their peaks when the
// second job starts. They grow lazily, and what growth still lands in the
// second job depends on how its tasks interleave, which the unit changes:
// the counts are close, not equal. The gate allows less than one
// allocation per thousand added bios for it. Before the event paths
// above the block layer were made allocation-free the second job made 3 649
// calls at 256 KiB and 12 371 at 64 KiB, about one per two added bios.
// Both counts are pinned: any change shows. This binary replaces the global
// operator new to count calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/runner.hpp"
#include "workloads/benchmarks.hpp"

namespace {
std::uint64_t g_news = 0;
}  // namespace

// Not inlined, as in ring_alloc_test: keeps GCC's -Wmismatched-new-delete
// quiet where gtest news and deletes in one function.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace iosim::cluster {
namespace {

struct SecondJob {
  std::uint64_t news = 0;
  std::uint64_t bios = 0;  // guest bios it submitted
};

std::uint64_t guest_bios(Cluster& cl) {
  std::uint64_t n = 0;
  for (std::size_t h = 0; h < cl.n_hosts(); ++h) {
    for (std::size_t v = 0; v < cl.host(h).vm_count(); ++v) {
      n += cl.host(h).vm(v).layer().counters().bios_submitted;
    }
  }
  return n;
}

SecondJob second_job_news(std::int64_t io_unit_bytes) {
  ClusterConfig cfg;
  cfg.n_hosts = 2;
  cfg.vms_per_host = 2;
  mapred::JobConf warmup =
      workloads::make_job(workloads::stream_sort(), 1024 * mapred::kMiB);
  mapred::JobConf measured =
      workloads::make_job(workloads::stream_sort(), 64 * mapred::kMiB);
  warmup.io_unit_bytes = measured.io_unit_bytes = io_unit_bytes;
  std::uint64_t news_begin = 0, news_end = 0, bios_begin = 0, bios_end = 0;
  int jobs = 0;
  const RunResult r = run_job(cfg, {warmup, measured}, [&](Cluster& cl, mapred::Job& job) {
    if (++jobs < 2) return;
    job.append_hooks({.on_done = [&](sim::Time) {
      news_end = g_news;
      bios_end = guest_bios(cl);
    }});
    bios_begin = guest_bios(cl);
    news_begin = g_news;
  });
  EXPECT_FALSE(r.failed) << r.failure;
  EXPECT_EQ(r.jobs.size(), 2u);
  return {news_end - news_begin, bios_end - bios_begin};
}

TEST(ChainAlloc, SecondJobAllocatesPerTaskNotPerIo) {
  const SecondJob coarse = second_job_news(256 * 1024);
  const SecondJob fine = second_job_news(64 * 1024);
  std::printf("second job: %llu operator new calls at 256 KiB, %llu at 64 KiB "
              "(%llu / %llu bios)\n",
              static_cast<unsigned long long>(coarse.news),
              static_cast<unsigned long long>(fine.news),
              static_cast<unsigned long long>(coarse.bios),
              static_cast<unsigned long long>(fine.bios));
  // The finer unit really does multiply the I/O events.
  ASSERT_GT(fine.bios, 3 * coarse.bios);
  const std::uint64_t added_bios = fine.bios - coarse.bios;
  const std::uint64_t diff =
      fine.news > coarse.news ? fine.news - coarse.news : coarse.news - fine.news;
  EXPECT_LT(diff * 1000, added_bios) << "allocations that follow I/O events";
  // Each of the 8 reduce tasks allocates its fetch queue's ring once, at
  // the first push.
  EXPECT_EQ(coarse.news, 105u);
  EXPECT_EQ(fine.news, 109u);
}

}  // namespace
}  // namespace iosim::cluster
