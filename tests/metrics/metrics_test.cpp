#include <gtest/gtest.h>

#include "blk/block_layer.hpp"
#include "blk/disk_device.hpp"
#include "blk/request_sink.hpp"
#include "metrics/iostat_sampler.hpp"
#include "metrics/table.hpp"

namespace iosim::metrics {
namespace {

using namespace iosim::sim::literals;
using iosched::Dir;
using sim::Time;

TEST(Table, CsvRoundTrip) {
  Table t("demo");
  t.headers({"a", "b"});
  t.row({"1", "x"});
  t.row({"2", "y"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,x\n2,y\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::pct(12.345, 1), "12.3%");
}

TEST(Table, PrintDoesNotCrashOnRaggedRows) {
  Table t;
  t.headers({"a", "b", "c"});
  t.row({"1"});
  t.row({"1", "2", "3", "4"});
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  t.print(sink);
  std::fclose(sink);
}

/// Capacity-1 sink that completes every request exactly `latency` after
/// dispatch — timings become pencil-and-paper checkable, unlike DiskDevice
/// whose service time depends on seek distance.
class FixedLatencySink : public blk::RequestSink {
 public:
  FixedLatencySink(sim::Simulator& simr, Time latency)
      : simr_(simr), latency_(latency) {}

  bool can_accept() const override { return !busy_; }

  void submit(blk::Request* rq, Time) override {
    busy_ = true;
    simr_.after(latency_, [this, rq] {
      const Time t = simr_.now();
      busy_ = false;
      complete(rq, t);
      ready(t);
    });
  }

 private:
  sim::Simulator& simr_;
  Time latency_;
  bool busy_ = false;
};

struct FixedLatencyRig {
  sim::Simulator simr;
  FixedLatencySink sink;
  blk::BlockLayer layer;

  explicit FixedLatencyRig(Time latency = 2_sec)
      : sink(simr, latency), layer(simr, sink, [] {
          blk::BlockLayerConfig cfg;
          cfg.scheduler = iosched::SchedulerKind::kNoop;
          return cfg;
        }()) {}

  void submit(disk::Lba lba, std::int64_t sectors, Dir dir, bool sync) {
    blk::Bio b;
    b.lba = lba;
    b.sectors = sectors;
    b.dir = dir;
    b.sync = sync;
    layer.submit(std::move(b));
  }
};

/// Σ over the windows of MB/s × the sampling period, in bytes.
double window_bytes(const IostatSampler& s) {
  double bytes = 0;
  for (const auto& w : s.series(0)) {
    bytes += (w.read_mb_s + w.write_mb_s) * IostatSampler::kPeriod.sec() * 1e6;
  }
  return bytes;
}

TEST(IostatSampler, HandComputedTwoRequestWindows) {
  // Sink latency 2s, noop, capacity 1, 1s sampling period:
  //   t=0s: sync read submitted, completes t=2s;
  //   t=1s: async write submitted, waits for the sink, completes t=4s.
  // A completion at a tick's instant lands in that tick's window (the
  // completion was scheduled before the tick), so window (1s, 2s] holds
  // the read and (3s, 4s] the write: 4096 B / 1s = 0.004096 MB/s each.
  FixedLatencyRig r;
  IostatSampler sampler(r.simr);
  sampler.watch(r.layer);
  sampler.start();
  r.submit(1'000, 8, Dir::kRead, /*sync=*/true);
  r.simr.after(1_sec, [&] { r.submit(50'000, 8, Dir::kWrite, /*sync=*/false); });
  r.simr.run();  // the drain guard stops the sampler at the first idle tick

  const auto& s = sampler.series(0);
  ASSERT_EQ(s.size(), 4u);
  const double read[] = {0.0, 0.004096, 0.0, 0.0};
  const double write[] = {0.0, 0.0, 0.0, 0.004096};
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].t, Time::from_sec(static_cast<std::int64_t>(i) + 1)) << "window " << i;
    EXPECT_DOUBLE_EQ(s[i].read_mb_s, read[i]) << "window " << i;
    EXPECT_DOUBLE_EQ(s[i].write_mb_s, write[i]) << "window " << i;
  }
  EXPECT_DOUBLE_EQ(window_bytes(sampler), 2.0 * 8 * disk::kSectorBytes);
}

TEST(IostatSampler, WindowBytesSumToBytesCompleted) {
  sim::Simulator simr;
  blk::DiskDevice disk(simr, disk::DiskParams{}, 1);
  blk::BlockLayer layer(simr, disk, blk::BlockLayerConfig{});
  IostatSampler sampler(simr);
  sampler.watch(layer);
  sampler.start();
  // One bio every 100 ms: the I/O spans several 1 s windows.
  for (int i = 0; i < 20; ++i) {
    simr.after(Time::from_ms(100 * i), [&layer, i] {
      blk::Bio b;
      b.lba = 1'000'000 + i * 512;
      b.sectors = 512;
      b.dir = i % 3 ? Dir::kWrite : Dir::kRead;
      b.ctx = 1;
      layer.submit(std::move(b));
    });
  }
  simr.run();

  const auto& c = layer.counters();
  const auto completed = c.bytes_completed[0] + c.bytes_completed[1];
  ASSERT_EQ(completed, 20 * 512 * disk::kSectorBytes);
  EXPECT_GT(sampler.series(0).size(), 1u);
  EXPECT_NEAR(window_bytes(sampler), static_cast<double>(completed),
              static_cast<double>(completed) * 1e-9);
}

}  // namespace
}  // namespace iosim::metrics
