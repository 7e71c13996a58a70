// Tests of the NCQ-capable disk device and the queueing latency it shows.
#include <gtest/gtest.h>

#include <vector>

#include "blk/block_layer.hpp"
#include "blk/disk_device.hpp"
#include "recording_sink.hpp"
#include "sim/stats.hpp"

namespace iosim::blk {
namespace {

using iosched::Dir;
using iosched::SchedulerKind;
using sim::Time;
using test::RecordingSink;
using test::SinkEvent;

struct Rig {
  sim::Simulator simr;
  DiskDevice disk;
  RecordingSink rec;  // the layer's view of the disk; records nothing unless set
  BlockLayer layer;
  explicit Rig(int ncq_depth, SchedulerKind k = SchedulerKind::kNoop)
      : disk(simr,
             [ncq_depth] {
               disk::DiskParams p;
               p.ncq_depth = ncq_depth;
               return p;
             }(),
             1),
        rec(disk),
        layer(simr, rec, [k] {
          BlockLayerConfig cfg;
          cfg.scheduler = k;
          return cfg;
        }()) {}

  void submit(disk::Lba lba, Dir dir = Dir::kWrite,
              std::function<void(Time)> cb = {}) {
    Bio b;
    b.lba = lba;
    b.sectors = 64;
    b.dir = dir;
    b.sync = dir == Dir::kRead;
    b.ctx = 1;
    if (cb) b.on_complete = [cb = std::move(cb)](Time t, IoStatus) { cb(t); };
    layer.submit(std::move(b));
  }
};

TEST(Ncq, DepthOneMatchesLegacyBehaviour) {
  Rig r(1);
  EXPECT_TRUE(r.disk.can_accept());
  int done = 0;
  for (int i = 0; i < 10; ++i) r.submit(i * 100'000, Dir::kWrite, [&](Time) { ++done; });
  r.simr.run();
  EXPECT_EQ(done, 10);
}

TEST(Ncq, DeeperQueueAcceptsMore) {
  Rig r(4);
  // Submit while holding the layer's dispatch hot: the device should take
  // several requests before refusing.
  r.submit(0);
  r.submit(100'000'000);
  r.submit(200'000'000);
  // Depth 4: three in the device (one in service + two queued) still
  // leaves room for one more.
  EXPECT_TRUE(r.disk.can_accept());
  r.simr.run();
}

TEST(Ncq, AllRequestsCompleteAtAnyDepth) {
  for (int depth : {1, 2, 8, 32}) {
    Rig r(depth, SchedulerKind::kCfq);
    int done = 0;
    for (int i = 0; i < 60; ++i) {
      r.submit((i * 7919) % 1000 * 1'000'000, i % 2 ? Dir::kRead : Dir::kWrite,
               [&](Time) { ++done; });
    }
    r.simr.run();
    EXPECT_EQ(done, 60) << "depth " << depth;
    EXPECT_EQ(r.layer.in_flight(), 0u);
  }
}

TEST(Ncq, SatfReordersScatteredRequestsFaster) {
  // Under noop (no elevator help), an NCQ drive should finish a scattered
  // batch faster than a depth-1 drive: it reorders internally.
  auto elapsed_with = [](int depth) {
    Rig r(depth, SchedulerKind::kNoop);
    sim::Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      r.submit(static_cast<disk::Lba>(rng.below(1'900'000'000)), Dir::kWrite);
    }
    r.simr.run();
    return r.simr.now();
  };
  EXPECT_LT(elapsed_with(16), elapsed_with(1) * 0.9);
}

/// Block-layer residence (submit -> completion, ms) of every request
/// completing at a layer, by direction and sync class.
struct Latencies {
  std::vector<double> all, reads, writes, sync;

  explicit Latencies(Rig& r) {
    r.rec.set_record([this](SinkEvent e, const iosched::Request& rq, Time now) {
      if (e != SinkEvent::kComplete) return;
      const double ms = (now - rq.submit).ms();
      all.push_back(ms);
      (rq.dir == Dir::kRead ? reads : writes).push_back(ms);
      if (rq.sync) sync.push_back(ms);
    });
  }
};

double pct(const std::vector<double>& xs, double p) {
  return sim::percentile_nearest_rank(xs, p);
}

TEST(Ncq, LatencyRecordedPerDirection) {
  Rig r(1);
  Latencies lat(r);
  r.submit(1000, Dir::kRead);
  r.submit(500'000'000, Dir::kWrite);
  r.simr.run();
  EXPECT_EQ(lat.reads.size(), 1u);
  EXPECT_EQ(lat.writes.size(), 1u);
  EXPECT_EQ(lat.sync.size(), 1u);
  EXPECT_EQ(lat.all.size(), 2u);
  EXPECT_GT(pct(lat.reads, 0.5), 0.0);
  EXPECT_GT(pct(lat.writes, 0.5), 0.0);
}

TEST(Ncq, QueueingInflatesLatency) {
  Rig r(1);
  Latencies lat(r);
  for (int i = 0; i < 50; ++i) r.submit(i * 10'000'000, Dir::kWrite);
  r.simr.run();
  // The last-completing requests waited behind dozens of seeks.
  EXPECT_GT(pct(lat.writes, 0.95), 5.0 * pct(lat.writes, 0.05));
}

TEST(Ncq, LatencyPercentilesOrdered) {
  Rig r(1, SchedulerKind::kDeadline);
  Latencies lat(r);
  sim::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    r.submit(static_cast<disk::Lba>(rng.below(1'000'000'000)),
             i % 2 ? Dir::kRead : Dir::kWrite);
  }
  r.simr.run();
  EXPECT_LE(pct(lat.reads, 0.5), pct(lat.reads, 0.99));
  EXPECT_LE(pct(lat.writes, 0.5), pct(lat.writes, 0.99));
}

}  // namespace
}  // namespace iosim::blk
