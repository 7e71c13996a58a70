// End-to-end tests of the MapReduce engine on a small cluster.
#include "mapred/job.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "trace/trace.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::mapred {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using sim::Time;

ClusterConfig small_cluster(int hosts = 1, int vms = 2) {
  ClusterConfig cfg;
  cfg.n_hosts = hosts;
  cfg.vms_per_host = vms;
  return cfg;
}

JobConf small_sort(std::int64_t mb_per_vm = 128) {
  auto jc = workloads::make_job(workloads::stream_sort(), mb_per_vm * kMiB);
  return jc;
}

struct RunHarness {
  Cluster cl;
  Job job;
  explicit RunHarness(const ClusterConfig& cfg, const JobConf& jc, std::uint64_t seed = 5)
      : cl(cfg), job(cl.env(), jc, seed) {}
  void go() {
    job.run();
    cl.simr().run();
  }
};

TEST(Job, CompletesOnSmallCluster) {
  RunHarness h(small_cluster(), small_sort());
  h.go();
  EXPECT_TRUE(h.job.done());
  EXPECT_GT(h.job.stats().t_done, Time::zero());
}

TEST(Job, PhaseTimestampsAreOrdered) {
  RunHarness h(small_cluster(2, 2), small_sort());
  h.go();
  const JobStats& s = h.job.stats();
  EXPECT_LE(s.t_start, s.t_first_map_done);
  EXPECT_LE(s.t_first_map_done, s.t_maps_done);
  EXPECT_LE(s.t_maps_done, s.t_shuffle_done);
  EXPECT_LE(s.t_shuffle_done, s.t_done);
}

TEST(Job, TaskCountsMatchConfig) {
  const auto jc = small_sort(128);  // 2 blocks per VM
  RunHarness h(small_cluster(1, 2), jc);
  h.go();
  EXPECT_EQ(h.job.stats().maps_total, jc.n_maps(2));
  EXPECT_EQ(h.job.stats().maps_total, 4);
  EXPECT_EQ(h.job.stats().reduces_total, jc.n_reduces(2));
}

TEST(Job, ByteAccountingConserved) {
  const auto jc = small_sort(128);
  RunHarness h(small_cluster(1, 2), jc);
  h.go();
  const JobStats& s = h.job.stats();
  const std::int64_t input = 2 * 128 * kMiB;
  EXPECT_EQ(s.map_input_bytes, input);
  // Sort: map output == input (modulo integer division per chunk).
  EXPECT_NEAR(static_cast<double>(s.map_output_bytes), static_cast<double>(input),
              static_cast<double>(input) * 0.01);
  // Every map output byte is shuffled once (modulo per-partition rounding).
  EXPECT_NEAR(static_cast<double>(s.shuffle_bytes), static_cast<double>(s.map_output_bytes),
              static_cast<double>(input) * 0.01);
  // Sort writes its input size back out.
  EXPECT_NEAR(static_cast<double>(s.output_bytes), static_cast<double>(s.shuffle_bytes),
              static_cast<double>(input) * 0.01);
}

TEST(Job, WordcountShrinksData) {
  auto jc = workloads::make_job(workloads::wordcount(), 128 * kMiB);
  RunHarness h(small_cluster(1, 2), jc);
  h.go();
  const JobStats& s = h.job.stats();
  EXPECT_LT(s.map_output_bytes, s.map_input_bytes / 10);
  EXPECT_LT(s.output_bytes, s.map_input_bytes / 10);
}

TEST(Job, NoCombinerInflatesMapOutput) {
  auto jc = workloads::make_job(workloads::wordcount_no_combiner(), 128 * kMiB);
  RunHarness h(small_cluster(1, 2), jc);
  h.go();
  const JobStats& s = h.job.stats();
  EXPECT_GT(s.map_output_bytes, s.map_input_bytes);  // ~1.7x
  // Every output byte went through at least one spill.
  EXPECT_GE(s.map_side_spill_bytes, s.map_output_bytes);
}

TEST(Job, SubBlockInputRoundsUpToWholeBlocks) {
  // HDFS lays each VM's input out in whole 64 MiB blocks and every map
  // reads its block in full, so 16 MiB per VM runs the same job as 64 MiB,
  // and 65 MiB runs two full blocks. Hadoop would store a partial last
  // block; whether the model should is an open question (ROADMAP.md).
  const auto run = [](std::int64_t mb) {
    RunHarness h(small_cluster(1, 2), small_sort(mb));
    h.go();
    EXPECT_TRUE(h.job.done());
    return h.job.stats();
  };
  const JobStats s16 = run(16);
  const JobStats s64 = run(64);
  const JobStats s65 = run(65);
  EXPECT_EQ(s16.maps_total, 2);
  EXPECT_EQ(s16.map_input_bytes, 2 * 64 * kMiB);
  EXPECT_EQ(s16.t_done, s64.t_done);
  EXPECT_EQ(s16.output_bytes, s64.output_bytes);
  EXPECT_EQ(s65.maps_total, 4);
  EXPECT_EQ(s65.map_input_bytes, 2 * 128 * kMiB);
}

TEST(Job, MilestonesMonotone) {
  RunHarness h(small_cluster(2, 2), small_sort());
  h.go();
  const auto& ms = h.job.stats().milestones;
  ASSERT_GE(ms.size(), 10u);
  for (std::size_t i = 1; i < ms.size(); ++i) {
    EXPECT_GE(ms[i].t, ms[i - 1].t);
    EXPECT_GT(ms[i].progress, ms[i - 1].progress);
  }
  EXPECT_NEAR(ms.back().progress, 1.0, 0.051);
}

TEST(Job, ProgressReachesOne) {
  RunHarness h(small_cluster(), small_sort());
  h.go();
  EXPECT_DOUBLE_EQ(h.job.progress(), 1.0);
}

TEST(Job, EventsFireInOrder) {
  RunHarness h(small_cluster(1, 2), small_sort());
  std::vector<std::string> events;
  h.job.on_first_map_done = [&](Time) { events.push_back("first_map"); };
  h.job.on_maps_done = [&](Time) { events.push_back("maps"); };
  h.job.on_shuffle_done = [&](Time) { events.push_back("shuffle"); };
  h.job.on_done = [&](Time) { events.push_back("done"); };
  h.go();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], "first_map");
  EXPECT_EQ(events[1], "maps");
  EXPECT_EQ(events[2], "shuffle");
  EXPECT_EQ(events[3], "done");
}

TEST(Job, DeterministicGivenSeed) {
  auto run_once = [] {
    RunHarness h(small_cluster(1, 2), small_sort(), 42);
    h.go();
    return h.job.stats().t_done;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Job, DifferentSeedsVarySlightly) {
  auto run_with = [](std::uint64_t seed) {
    ClusterConfig cfg = small_cluster(1, 2);
    cfg.seed = seed;
    RunHarness h(cfg, small_sort(), seed);
    h.go();
    return h.job.stats().t_done;
  };
  const Time a = run_with(1);
  const Time b = run_with(2);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a.sec(), b.sec(), a.sec() * 0.25);  // same ballpark
}

TEST(Job, ShuffleTailPctMatchesDefinition) {
  RunHarness h(small_cluster(2, 2), small_sort());
  h.go();
  const JobStats& s = h.job.stats();
  const double expect =
      100.0 * (s.t_shuffle_done - s.t_maps_done).ratio(s.t_done - s.t_start);
  EXPECT_DOUBLE_EQ(s.shuffle_tail_pct(), expect);
  EXPECT_GE(s.shuffle_tail_pct(), 0.0);
  EXPECT_LE(s.shuffle_tail_pct(), 100.0);
}

TEST(Job, MoreWavesShrinkShuffleTail) {
  // Table II's mechanism: more map waves overlap more of the shuffle.
  auto tail_with = [](std::int64_t mb_per_vm) {
    ClusterConfig cfg = small_cluster(2, 2);
    RunHarness h(cfg, small_sort(mb_per_vm), 7);
    h.go();
    return h.job.stats().shuffle_tail_pct();
  };
  const double one_wave = tail_with(128);   // 2 blocks/VM over 2 slots = 1 wave
  const double four_waves = tail_with(512); // 8 blocks/VM = 4 waves
  EXPECT_GT(one_wave, four_waves);
}

TEST(Job, ScalesWithDataSize) {
  auto time_with = [](std::int64_t mb) {
    RunHarness h(small_cluster(1, 2), small_sort(mb), 7);
    h.go();
    return h.job.stats().elapsed().sec();
  };
  const double t128 = time_with(128);
  const double t256 = time_with(256);
  EXPECT_GT(t256, t128 * 1.5);
}

TEST(Job, SingleVmClusterWorks) {
  RunHarness h(small_cluster(1, 1), small_sort(64));
  h.go();
  EXPECT_TRUE(h.job.done());
}

TEST(Job, LargerClusterIsFasterPerByte) {
  // Same per-VM data on more hosts should take about the same wall time,
  // not more: scale-out sanity.
  auto time_with = [](int hosts) {
    RunHarness h(small_cluster(hosts, 2), small_sort(128), 7);
    h.go();
    return h.job.stats().elapsed().sec();
  };
  const double t1 = time_with(1);
  const double t3 = time_with(3);
  EXPECT_LT(t3, t1 * 1.8);
}

TEST(Job, MostMapsRunLocal) {
  // With balanced placement and locality-aware assignment, remote map
  // reads should be rare (tracked indirectly: job completes well under the
  // time remote reads for everything would take is flaky; instead verify
  // via the network counter).
  ClusterConfig cfg = small_cluster(2, 2);
  Cluster cl(cfg);
  auto jc = small_sort(128);
  Job job(cl.env(), jc, 5);
  job.run();
  cl.simr().run();
  // Network traffic should be dominated by shuffle + replication, not map
  // input: under ~2.2x of (shuffle + output) bytes.
  const auto& s = job.stats();
  EXPECT_LT(cl.env().net->bytes_delivered(),
            static_cast<std::int64_t>(1.2 * static_cast<double>(
                s.shuffle_bytes + s.output_bytes + s.map_input_bytes / 4)));
}

TEST(Job, SubWaveSortRunsEveryMapOnTheLowerHalfOfTheVms) {
  // Pins today's placement, a known deviation (EXPERIMENTS.md D5), not a
  // property to keep: 4 hosts x 4 VMs x 64 MB is one block per VM, so 16
  // maps meet 32 map slots, and try_assign_maps fills VM 0's two slots
  // first, then VM 1's, and so on. VMs 0-7 (hosts 0 and 1) run every map;
  // hosts 2 and 3 run none. A fix that spreads such a job moves this test
  // together with the digests it moves.
  trace::TraceSession session;
  trace::Tracer& tr = session.tracer();
  tr.pin_name(tr.ids.map_span);  // a bio flood must not push a map span out
  ClusterConfig cfg = small_cluster(4, 4);
  cfg.pair = iosched::kDefaultPair;
  constexpr int kVms = 16;
  std::vector<std::uint32_t> tracks;
  for (int v = 0; v < kVms; ++v) tracks.push_back(tr.track("tasks/vm" + std::to_string(v)));
  RunHarness h(cfg, small_sort(64));
  h.go();
  ASSERT_TRUE(h.job.done());
  ASSERT_EQ(h.job.stats().maps_total, kVms);
  std::vector<int> maps(kVms, 0);
  tr.for_each([&](const trace::Event& e) {
    if (e.name != tr.ids.map_span) return;
    for (int v = 0; v < kVms; ++v) {
      if (e.track == tracks[static_cast<std::size_t>(v)]) ++maps[static_cast<std::size_t>(v)];
    }
  });
  for (int v = 0; v < kVms; ++v) {
    EXPECT_EQ(maps[static_cast<std::size_t>(v)], v < kVms / 2 ? 2 : 0) << "vm " << v;
  }
}

}  // namespace
}  // namespace iosim::mapred
