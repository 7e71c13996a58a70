// Scale pins past the 6-host clusters every other test uses: a seeded
// (cfq, cfq) sort at 16 and 32 hosts must reproduce its job milestones, byte
// counters and simulator event count exactly. At these sizes the all-to-all
// shuffle keeps hundreds of flows in net::FlowNetwork at once, so any change
// to the max-min rates or to the order finished flows report in moves these
// numbers. Like the trace digests, a failure here is a model change, not a
// baseline to refresh.
//
// The same runs pin the deterministic work counts next to the event count:
// the water-fill's re-levels, flows re-leveled, bottleneck rounds and link
// visits, and the job's full progress sums. These are the terms that grew
// faster than the cluster before the water-fill became component-local and
// the progress check incremental (DESIGN.md §8.5, §8.8); if one comes back,
// it fails here as a count rather than as wall-clock noise.
//
// The same runs check byte conservation at 8, 16 and 32 hosts: the shuffle
// moves exactly the map output, and a sort writes exactly its input.
#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/cluster.hpp"
#include "mapred/job.hpp"
#include "net/flow_network.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim {
namespace {

struct ScaleRun {
  mapred::JobStats stats;
  std::uint64_t events = 0;
  net::FlowNetwork::Work net;
  std::uint64_t progress_sums = 0;
};

/// 16 MiB per VM is less than one 64 MiB HDFS block, and JobConf rounds
/// each VM's input up to whole blocks, so every VM reads one full block:
/// this is the same job as 64 MiB per VM.
mapred::JobConf sort_conf() {
  return workloads::make_job(workloads::stream_sort(), 16 * mapred::kMiB);
}

/// The run_job path, kept inline so the simulator's event count is still
/// readable after the job drains.
ScaleRun run_sort(int hosts) {
  cluster::ClusterConfig cfg;
  cfg.n_hosts = hosts;
  cfg.vms_per_host = 4;
  cfg.pair = iosched::kDefaultPair;  // (cfq, cfq)
  cfg.seed = 1;
  cluster::Cluster cl(cfg);
  mapred::Job job(cl.env(), sort_conf(), cfg.seed ^ 0x9E3779B97F4A7C15ULL);
  job.run();
  cl.simr().run();
  EXPECT_TRUE(job.done()) << hosts << " hosts: " << job.failure();
  return {job.stats(), cl.simr().executed(), cl.env().net->work(), job.progress_sums()};
}

struct ScalePin {
  int hosts;
  bool pinned;  // false: conservation only
  std::int64_t t_maps_done_ns;
  std::int64_t t_shuffle_done_ns;
  std::int64_t t_done_ns;
  std::int64_t shuffle_bytes;
  std::int64_t output_bytes;
  std::uint64_t events;
  net::FlowNetwork::Work net;
  std::uint64_t progress_sums;
};

constexpr ScalePin kScalePins[] = {
    {8, false, 0, 0, 0, 0, 0, 0, {}, 0},
    {16, true, 45'447'357'104, 46'419'072'256, 51'775'043'718, 4'294'967'296,
     4'294'967'296, 324'548, {17'952, 45'549, 15'359, 58'711}, 195},
    {32, true, 49'236'044'311, 50'196'626'164, 57'029'519'183, 8'589'934'592,
     8'589'934'592, 666'131, {68'896, 259'267, 81'324, 912'176}, 392},
};

TEST(ScalePins, SortIsPinnedAndConservesBytes) {
  // HDFS lays each VM's input out in whole blocks: 16 MB rounds up to one.
  const mapred::JobConf jc = sort_conf();
  const std::int64_t per_vm =
      (jc.input_bytes_per_vm + jc.block_bytes - 1) / jc.block_bytes * jc.block_bytes;
  for (const ScalePin& pin : kScalePins) {
    const ScaleRun r = run_sort(pin.hosts);
    const std::int64_t input = std::int64_t{pin.hosts} * 4 * per_vm;
    EXPECT_EQ(r.stats.map_input_bytes, input) << pin.hosts << " hosts";
    EXPECT_EQ(r.stats.shuffle_bytes, r.stats.map_output_bytes) << pin.hosts << " hosts";
    EXPECT_EQ(r.stats.output_bytes, r.stats.map_input_bytes) << pin.hosts << " hosts";
    if (!pin.pinned) continue;
    EXPECT_EQ(r.stats.t_maps_done.ns(), pin.t_maps_done_ns) << pin.hosts << " hosts";
    EXPECT_EQ(r.stats.t_shuffle_done.ns(), pin.t_shuffle_done_ns) << pin.hosts << " hosts";
    EXPECT_EQ(r.stats.t_done.ns(), pin.t_done_ns) << pin.hosts << " hosts";
    EXPECT_EQ(r.stats.shuffle_bytes, pin.shuffle_bytes) << pin.hosts << " hosts";
    EXPECT_EQ(r.stats.output_bytes, pin.output_bytes) << pin.hosts << " hosts";
    EXPECT_EQ(r.events, pin.events) << pin.hosts << " hosts";
    EXPECT_EQ(r.net.relevels, pin.net.relevels) << pin.hosts << " hosts";
    EXPECT_EQ(r.net.flows_relevelled, pin.net.flows_relevelled) << pin.hosts << " hosts";
    EXPECT_EQ(r.net.rounds, pin.net.rounds) << pin.hosts << " hosts";
    EXPECT_EQ(r.net.link_visits, pin.net.link_visits) << pin.hosts << " hosts";
    EXPECT_EQ(r.progress_sums, pin.progress_sums) << pin.hosts << " hosts";
  }
}

}  // namespace
}  // namespace iosim
