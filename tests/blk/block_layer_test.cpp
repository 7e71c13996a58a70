#include "blk/block_layer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "blk/disk_device.hpp"
#include "check/check.hpp"
#include "recording_sink.hpp"

namespace iosim::blk {
namespace {

using namespace iosim::sim::literals;
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

  explicit Rig(SchedulerKind k = SchedulerKind::kNoop, BlockLayerConfig cfg = {})
      : disk(simr, disk::DiskParams{}, 1),
        rec(disk),
        layer(simr, rec, [&cfg, k] {
          cfg.scheduler = k;
          return cfg;
        }()) {}

  void submit(disk::Lba lba, std::int64_t sectors, Dir dir, bool sync,
              std::uint64_t ctx, std::function<void(Time)> cb = {}) {
    Bio b;
    b.lba = lba;
    b.sectors = sectors;
    b.dir = dir;
    b.sync = sync;
    b.ctx = ctx;
    if (cb) b.on_complete = [cb = std::move(cb)](Time t, IoStatus) { cb(t); };
    layer.submit(std::move(b));
  }
};

TEST(BlockLayer, CompletesASingleBio) {
  Rig r;
  Time done;
  r.submit(1000, 512, Dir::kRead, true, 1, [&](Time t) { done = t; });
  r.simr.run();
  EXPECT_GT(done, Time::zero());
  EXPECT_EQ(r.layer.counters().bios_submitted, 1u);
  EXPECT_EQ(r.layer.counters().requests_completed, 1u);
  EXPECT_EQ(r.layer.counters().bytes_completed[0], 512 * disk::kSectorBytes);
}

TEST(BlockLayer, CompletesManyBios) {
  Rig r(SchedulerKind::kCfq);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    r.submit(i * 1000, 256, i % 2 ? Dir::kRead : Dir::kWrite, i % 2 == 1,
             static_cast<std::uint64_t>(i % 3), [&](Time) { ++completed; });
  }
  r.simr.run();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(r.layer.in_flight(), 0u);
  EXPECT_EQ(r.layer.queued(), 0u);
}

TEST(BlockLayer, BackMergesAdjacentSequentialBios) {
  // Submit a burst of adjacent bios while the disk is busy with the first:
  // they must coalesce into fewer, larger requests.
  Rig r;
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    r.submit(1'000'000 + i * 64, 64, Dir::kWrite, false, 1, [&](Time) { ++completed; });
  }
  r.simr.run();
  EXPECT_EQ(completed, 8);
  EXPECT_GT(r.layer.counters().back_merges, 0u);
  EXPECT_LT(r.layer.counters().requests_dispatched, 8u);
}

TEST(BlockLayer, MergeRespectsMaxRequestSize) {
  BlockLayerConfig cfg;
  cfg.max_request_sectors = 128;
  Rig r(SchedulerKind::kNoop, cfg);
  for (int i = 0; i < 8; ++i) {
    r.submit(1'000'000 + i * 64, 64, Dir::kWrite, false, 1);
  }
  r.simr.run();
  // 8 x 64 sectors with a 128-sector cap: at least 4 requests.
  EXPECT_GE(r.layer.counters().requests_dispatched, 4u);
}

TEST(BlockLayer, NoMergeAcrossDirections) {
  Rig r;
  r.submit(1'000'000, 64, Dir::kWrite, false, 1);
  r.submit(1'000'064, 64, Dir::kRead, true, 1);  // adjacent but a read
  r.simr.run();
  EXPECT_EQ(r.layer.counters().back_merges, 0u);
}

TEST(BlockLayer, NoMergeAcrossContexts) {
  Rig r;
  r.submit(1'000'000, 64, Dir::kWrite, false, 1);
  r.submit(1'000'064, 64, Dir::kWrite, false, 2);
  r.submit(1'000'128, 64, Dir::kWrite, false, 2);
  r.simr.run();
  // Only the two ctx-2 bios may merge (the first is in flight immediately,
  // so even they may not; the ctx-1/ctx-2 boundary must never merge).
  EXPECT_LE(r.layer.counters().back_merges, 1u);
}

TEST(BlockLayer, MergedBiosAllComplete) {
  Rig r;
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    r.submit(2'000'000 + i * 64, 64, Dir::kWrite, false, 1,
             [&](Time t) { done.push_back(t); });
  }
  r.simr.run();
  ASSERT_EQ(done.size(), 4u);
  // Bios merged into one request complete at the same instant.
  EXPECT_GE(done.back(), done.front());
}

TEST(BlockLayer, RunCompletesEachMergedGroupWithOneCall) {
  // Two 512-sector runs of 88-sector segments at one instant on an idle
  // disk. The first run's first segment dispatches alone, its second
  // starts a request and the last four merge into that one; the second
  // run starts a request and merges its other five.
  Rig r;
  std::vector<std::uint32_t> counted;
  int per_bio = 0;
  const auto run = [&r](disk::Lba lba, iosched::BioCompletionFn done) {
    Bio b;
    b.lba = lba;
    b.sectors = 512;
    b.on_complete = std::move(done);
    r.layer.submit_segments(std::move(b), 88);
  };
  run(0, [&counted](Time, IoStatus, std::uint32_t bios) { counted.push_back(bios); });
  run(1 << 20, [&per_bio](Time, IoStatus) { ++per_bio; });
  r.simr.run();
  // A counted callback is called once per request, with the number of the
  // run's segments it carries; a per-bio one runs once per segment.
  EXPECT_EQ(counted, (std::vector<std::uint32_t>{1, 5}));
  EXPECT_EQ(per_bio, 6);
  EXPECT_EQ(r.layer.counters().bios_submitted, 12u);
  EXPECT_EQ(r.layer.counters().back_merges, 9u);
  EXPECT_EQ(r.layer.counters().requests_completed, 3u);
}

TEST(BlockLayer, SwitchSchedulerPreservesRequests) {
  Rig r(SchedulerKind::kCfq);
  int completed = 0;
  for (int i = 0; i < 30; ++i) {
    r.submit(i * 5000, 128, Dir::kRead, true, static_cast<std::uint64_t>(i % 4),
             [&](Time) { ++completed; });
  }
  // Switch while the queue is full.
  r.simr.after(1_ms, [&] { r.layer.switch_scheduler(SchedulerKind::kDeadline); });
  r.simr.run();
  EXPECT_EQ(completed, 30);
  EXPECT_EQ(r.layer.scheduler_kind(), SchedulerKind::kDeadline);
  EXPECT_EQ(r.layer.counters().scheduler_switches, 1u);
}

TEST(BlockLayer, SwitchFreezesDispatchForTheQuiesceWindow) {
  BlockLayerConfig cfg;
  cfg.switch_freeze = 100_ms;
  Rig r(SchedulerKind::kNoop, cfg);
  Time first_done;
  r.simr.after(Time::zero(), [&] {
    r.layer.switch_scheduler(SchedulerKind::kNoop);  // same kind still freezes
    r.submit(1000, 8, Dir::kRead, true, 1, [&](Time t) { first_done = t; });
  });
  r.simr.run();
  EXPECT_GE(first_done, 100_ms);
}

TEST(BlockLayer, SwitchToEveryKindWorks) {
  Rig r(SchedulerKind::kNoop);
  int completed = 0;
  const SchedulerKind kinds[] = {SchedulerKind::kDeadline, SchedulerKind::kAnticipatory,
                                 SchedulerKind::kCfq, SchedulerKind::kNoop};
  for (int k = 0; k < 4; ++k) {
    r.simr.after(sim::Time::from_ms(k * 50), [&r, k, &kinds] {
      r.layer.switch_scheduler(kinds[k]);
    });
  }
  for (int i = 0; i < 40; ++i) {
    r.simr.after(sim::Time::from_ms(i * 5), [&r, i, &completed] {
      Bio b;
      b.lba = i * 3000;
      b.sectors = 64;
      b.dir = Dir::kRead;
      b.sync = true;
      b.ctx = 1;
      b.on_complete = [&completed](Time, IoStatus) { ++completed; };
      r.layer.submit(std::move(b));
    });
  }
  r.simr.run();
  EXPECT_EQ(completed, 40);
  EXPECT_EQ(r.layer.counters().scheduler_switches, 4u);
}

TEST(BlockLayer, CountersMatchTrafficAtTheSink) {
  Rig r;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::int64_t completed_bytes = 0;
  r.rec.set_record([&](SinkEvent e, const Request& rq, Time now) {
    if (e == SinkEvent::kDispatch) {
      ++dispatched;
      EXPECT_EQ(rq.dispatch, now);
      EXPECT_GE(rq.dispatch, rq.submit);
    } else {
      ++completed;
      completed_bytes += rq.bytes();
    }
  });
  for (int i = 0; i < 10; ++i) r.submit(i * 9000, 128, Dir::kWrite, false, 1);
  r.simr.run();
  EXPECT_EQ(dispatched, r.layer.counters().requests_dispatched);
  EXPECT_EQ(completed, r.layer.counters().requests_completed);
  EXPECT_EQ(completed, dispatched);
  EXPECT_EQ(completed_bytes, 10 * 128 * disk::kSectorBytes);
  EXPECT_EQ(r.layer.counters().bytes_completed[static_cast<int>(Dir::kWrite)],
            completed_bytes);
}

TEST(BlockLayer, CompletionCallbackCanSubmitMore) {
  Rig r;
  int chain = 0;
  std::function<void(Time)> next = [&](Time) {
    if (++chain < 10) {
      r.submit(chain * 10'000, 64, Dir::kRead, true, 1, next);
    }
  };
  r.submit(0, 64, Dir::kRead, true, 1, next);
  r.simr.run();
  EXPECT_EQ(chain, 10);
}

TEST(BlockLayer, AnticipatoryIdleDoesNotDeadlock) {
  // A sync read completes, another context's request sits far away: the AS
  // layer idles, and the wakeup timer must eventually dispatch it.
  Rig r(SchedulerKind::kAnticipatory);
  int completed = 0;
  r.submit(1000, 8, Dir::kRead, true, 1, [&](Time) { ++completed; });
  r.simr.after(50_ms, [&] {
    r.submit(900'000'000, 8, Dir::kRead, true, 2, [&](Time) { ++completed; });
  });
  r.simr.run();
  EXPECT_EQ(completed, 2);
}

TEST(DiskDevice, ServicesOneRequestAtATime) {
  sim::Simulator simr;
  DiskDevice dev(simr, disk::DiskParams{}, 1);
  EXPECT_TRUE(dev.can_accept());
  iosched::Request rq;
  rq.lba = 0;
  rq.sectors = 512;
  rq.dir = Dir::kRead;
  bool completed = false;
  dev.set_on_complete([&](iosched::Request*, Time) { completed = true; });
  dev.submit(&rq, simr.now());
  EXPECT_FALSE(dev.can_accept());
  simr.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(dev.can_accept());
}

// --- request recycling -----------------------------------------------------

/// Serves one request at a time, 1 ms each, and fails the first
/// `fail_first` requests it receives.
class ScriptedSink final : public RequestSink {
 public:
  ScriptedSink(sim::Simulator& simr, int fail_first)
      : simr_(simr), fail_first_(fail_first) {}

  bool can_accept() const override { return busy_ == nullptr; }

  void submit(Request* rq, Time) override {
    busy_ = rq;
    if (served_++ < fail_first_) rq->status = IoStatus::kError;
    simr_.after(1_ms, [this] {
      Request* done = busy_;
      busy_ = nullptr;
      complete(done, simr_.now());
    });
  }

 private:
  sim::Simulator& simr_;
  int fail_first_;
  int served_ = 0;
  Request* busy_ = nullptr;
};

struct SinkRig {
  sim::Simulator simr;
  ScriptedSink sink;
  RecordingSink rec;  // as Rig::rec
  BlockLayer layer;
  explicit SinkRig(int fail_first) : sink(simr, fail_first), rec(sink), layer(simr, rec, {}) {}

  void submit(disk::Lba lba, obs::AttrHandle attr, std::function<void(IoStatus)> cb) {
    Bio b;
    b.lba = lba;
    b.sectors = 8;
    b.dir = Dir::kWrite;
    b.sync = false;
    b.ctx = 1;
    b.attr = attr;
    b.on_complete = [cb = std::move(cb)](Time, IoStatus st) { cb(st); };
    layer.submit(std::move(b));
  }
};

TEST(BlockLayerPool, RequestReusedAfterErrorStartsClean) {
  SinkRig r(/*fail_first=*/2);
  struct Seen {
    const Request* rq;
    IoStatus status;
    std::uint32_t n_bios;
    std::size_t completions;
    std::size_t attrs;
  };
  std::vector<Seen> seen;
  r.rec.set_record([&](SinkEvent e, const Request& rq, Time) {
    if (e != SinkEvent::kDispatch) return;
    seen.push_back({&rq, rq.status, rq.n_bios, rq.completions.size(), rq.attrs.size()});
  });
  std::vector<IoStatus> outcomes;
  auto record = [&](IoStatus st) { outcomes.push_back(st); };
  // Request 1 goes straight to the sink; bios 2-4 merge behind it into one
  // request carrying three callbacks and an attribution handle. The sink
  // fails both.
  r.submit(0, 5, record);
  r.submit(1000, 5, record);
  r.submit(1008, 6, record);
  r.submit(1016, 6, record);
  r.simr.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].n_bios, 3u);
  EXPECT_EQ(seen[1].completions, 3u);
  EXPECT_EQ(seen[1].attrs, 2u);
  EXPECT_EQ(outcomes, std::vector<IoStatus>(4, IoStatus::kError));
  EXPECT_EQ(r.layer.counters().requests_failed, 2u);

  // A fresh bio gets a recycled request object with none of its old state.
  r.submit(50'000, obs::kNoAttr, record);
  r.simr.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen[2].rq == seen[0].rq || seen[2].rq == seen[1].rq);
  EXPECT_EQ(seen[2].status, IoStatus::kOk);
  EXPECT_EQ(seen[2].n_bios, 1u);
  EXPECT_EQ(seen[2].completions, 1u);
  EXPECT_EQ(seen[2].attrs, 0u);
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes.back(), IoStatus::kOk);
}

TEST(BlockLayerPool, CallbackSubmittingIntoSameLayerFiresEachBioOnce) {
  SinkRig r(/*fail_first=*/0);
  std::vector<int> fired(4, 0);
  int resubmitted_done = 0;
  // Bio 0 occupies the sink; bios 1-3 merge into one request ending at
  // 1024. Every callback of that request submits a bio starting at 1024 —
  // adjacent to the request being completed, so it would merge into it if
  // the request were still indexed — and the pool must hand those bios
  // other request objects while the completing one finishes its callbacks.
  r.submit(0, obs::kNoAttr, [&](IoStatus) { ++fired[0]; });
  for (int i = 1; i <= 3; ++i) {
    r.submit(1000 + (i - 1) * 8, obs::kNoAttr, [&, i](IoStatus) {
      ++fired[static_cast<std::size_t>(i)];
      r.submit(1024 + (i - 1) * 8, obs::kNoAttr, [&](IoStatus) { ++resubmitted_done; });
    });
  }
  r.simr.run();
  EXPECT_EQ(fired, std::vector<int>(4, 1));
  EXPECT_EQ(resubmitted_done, 3);
  EXPECT_EQ(r.layer.counters().bios_submitted, 7u);
  EXPECT_EQ(r.layer.in_flight(), 0u);
  EXPECT_EQ(r.layer.queued(), 0u);
}

TEST(BlockLayerPool, MidRunSwitchUnderReuseIsInvariantClean) {
  check::AuditorSession cs(check::Auditor::Mode::kRecord);
  BlockLayerConfig cfg;
  cfg.switch_freeze = 20_ms;
  Rig r(SchedulerKind::kCfq, cfg);
  std::set<const Request*> objects;
  r.rec.set_record([&](SinkEvent e, const Request& rq, Time) {
    if (e == SinkEvent::kDispatch) objects.insert(&rq);
  });
  int completed = 0;
  // Sequential-ish streams from three contexts, submitted over 400 ms; the
  // elevator switches twice while they run.
  for (int i = 0; i < 300; ++i) {
    r.simr.after(sim::Time::from_us(i * 1300), [&r, &completed, i] {
      Bio b;
      b.lba = (i % 3) * 10'000'000 + (i / 3) * 64;
      b.sectors = 64;
      b.dir = i % 3 == 2 ? Dir::kWrite : Dir::kRead;
      b.sync = b.dir == Dir::kRead;
      b.ctx = static_cast<std::uint64_t>(i % 3);
      b.on_complete = [&completed](Time, IoStatus) { ++completed; };
      r.layer.submit(std::move(b));
    });
  }
  r.simr.after(100_ms, [&] { r.layer.switch_scheduler(SchedulerKind::kAnticipatory); });
  r.simr.after(250_ms, [&] { r.layer.switch_scheduler(SchedulerKind::kDeadline); });
  r.simr.run();
  cs.auditor().verify_end_of_run(r.simr.now().ns());
  EXPECT_EQ(completed, 300);
  EXPECT_EQ(r.layer.counters().scheduler_switches, 2u);
  // Reuse happened: far fewer request objects than requests.
  EXPECT_LT(objects.size() * 4, r.layer.counters().requests_dispatched);
  EXPECT_EQ(cs.auditor().violations_total(), 0u) << cs.auditor().report().to_string();
}

}  // namespace
}  // namespace iosim::blk
