// Unit tests for the attribution layer: hand-computed waterfalls through
// the raw stamping hooks, stamp-once/overwrite semantics, key separation,
// stall detection, record recycling, and the publish surface.
#include "obs/attribution.hpp"

#include <gtest/gtest.h>

#include <string>

#include "trace/registry.hpp"

namespace iosim::obs {
namespace {

using sim::Time;

// Drive one request through all six stamps with the given stage times (µs)
// and return its handle.
AttrHandle walk(Attribution& at, std::int64_t submit_us, std::int64_t gd_us,
                std::int64_t arr_us, std::int64_t disp_us, std::int64_t d0c_us,
                std::int64_t done_us, bool is_write = false, bool sync = true,
                std::size_t reads_ahead = 0, std::size_t writes_ahead = 0) {
  const AttrHandle h = at.on_submit(/*host=*/0, /*vm=*/1, is_write, sync,
                                    /*lba=*/4096, /*sectors=*/8,
                                    Time::from_us(submit_us));
  at.on_guest_dispatch(h, Time::from_us(gd_us));
  at.on_dom0_arrive(h, Time::from_us(arr_us), reads_ahead, writes_ahead,
                    reads_ahead + writes_ahead);
  at.on_dom0_dispatch(h, Time::from_us(disp_us));
  at.on_dom0_complete(h, Time::from_us(d0c_us));
  at.on_complete(h, Time::from_us(done_us));
  return h;
}

TEST(Attribution, HandComputedWaterfall) {
  Attribution at;
  // submit 0, guest dispatch 10µs, dom0 arrive 60µs, dom0 dispatch 100µs,
  // dom0 complete 200µs, guest complete 250µs.
  walk(at, 0, 10, 60, 100, 200, 250, /*is_write=*/false, /*sync=*/true,
       /*reads_ahead=*/2, /*writes_ahead=*/5);

  ASSERT_EQ(at.n_keys(), 1u);
  const AttrKey& k = at.key_at(0);
  EXPECT_EQ(k.host, 0);
  EXPECT_EQ(k.vm, 1);
  EXPECT_EQ(k.dir, 0);
  EXPECT_EQ(k.sync, 1);
  EXPECT_EQ(k.phase, 0);
  EXPECT_EQ(Attribution::key_name(k), "host0.vm1.read.sync.ph0");

  // Single sample per lane: sketch sum is the exact lane value.
  const std::int64_t us = 1000;
  EXPECT_EQ(at.lane(0, Lane::kGuestQueue).sum(), 10 * us);
  EXPECT_EQ(at.lane(0, Lane::kRingWait).sum(), 50 * us);
  EXPECT_EQ(at.lane(0, Lane::kElvWait).sum(), 40 * us);
  EXPECT_EQ(at.lane(0, Lane::kService).sum(), 100 * us);
  EXPECT_EQ(at.lane(0, Lane::kReturn).sum(), 50 * us);
  EXPECT_EQ(at.lane(0, Lane::kTotal).sum(), 250 * us);
  // Lanes sum exactly to the total — the waterfall invariant.
  std::int64_t lane_sum = 0;
  for (int l = 0; l < kNumLanes - 1; ++l) {
    lane_sum += at.lane(0, static_cast<Lane>(l)).sum();
  }
  EXPECT_EQ(lane_sum, at.lane(0, Lane::kTotal).sum());

  EXPECT_EQ(at.records_created(), 1u);
  EXPECT_EQ(at.records_completed(), 1u);
  EXPECT_EQ(at.records_live(), 0u);
  EXPECT_EQ(at.last_activity().ns(), 250 * us);
  EXPECT_EQ(at.windowed_total(0).count(), 1u);
  EXPECT_EQ(at.windowed_total(0).sum(), 250 * us);
}

TEST(Attribution, Dom0StampOnceAndOverwriteSemantics) {
  // Two ring segments of the same guest request: arrival and dispatch keep
  // the FIRST stamp (and the first queue snapshot); completion keeps the
  // LAST. The waterfall then spans first-arrival .. last-completion,
  // matching blktrace's request-level view.
  Attribution at;
  const AttrHandle h =
      at.on_submit(0, 0, false, true, 0, 176, Time::from_us(0));
  at.on_guest_dispatch(h, Time::from_us(10));
  at.on_dom0_arrive(h, Time::from_us(60), 1, 2, 3);    // first segment wins
  at.on_dom0_arrive(h, Time::from_us(70), 9, 9, 9);    // ignored
  at.on_dom0_dispatch(h, Time::from_us(100));          // first wins
  at.on_dom0_dispatch(h, Time::from_us(140));          // ignored
  at.on_dom0_complete(h, Time::from_us(180));
  at.on_dom0_complete(h, Time::from_us(200));          // last wins
  at.on_complete(h, Time::from_us(250));

  ASSERT_EQ(at.n_keys(), 1u);
  EXPECT_EQ(at.lane(0, Lane::kElvWait).sum(), 40'000);   // 60 -> 100 µs
  EXPECT_EQ(at.lane(0, Lane::kService).sum(), 100'000);  // 100 -> 200 µs
  EXPECT_EQ(at.lane(0, Lane::kReturn).sum(), 50'000);    // 200 -> 250 µs
}

TEST(Attribution, KeysSeparateByDirSyncAndPhase) {
  Attribution at;
  walk(at, 0, 1, 2, 3, 4, 5, /*is_write=*/false, /*sync=*/true);
  walk(at, 0, 1, 2, 3, 4, 5, /*is_write=*/true, /*sync=*/false);
  at.set_phase(2);
  walk(at, 0, 1, 2, 3, 4, 5, /*is_write=*/false, /*sync=*/true);
  ASSERT_EQ(at.n_keys(), 3u);
  EXPECT_EQ(Attribution::key_name(at.key_at(0)), "host0.vm1.read.sync.ph0");
  EXPECT_EQ(Attribution::key_name(at.key_at(1)), "host0.vm1.write.async.ph0");
  EXPECT_EQ(Attribution::key_name(at.key_at(2)), "host0.vm1.read.sync.ph2");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(at.lane(i, Lane::kTotal).count(), 1u) << "key " << i;
  }
}

TEST(Attribution, JobCtxWindowsSeparateKeys) {
  // Bios submitted from a stream job's private ctx window key to that job;
  // shared-namespace ctxs (below the first window) keep the historical
  // five-part key so single-job output is byte-identical.
  EXPECT_EQ(job_of_ctx(0), -1);
  EXPECT_EQ(job_of_ctx(10'000), -1);                     // legacy map task
  EXPECT_EQ(job_of_ctx(kJobCtxWindow - 1), -1);
  EXPECT_EQ(job_of_ctx(kJobCtxWindow), 0);               // job 0 window start
  EXPECT_EQ(job_of_ctx(2 * kJobCtxWindow + 10'123), 1);  // job 1 map task

  Attribution at;
  auto submit_done = [&](std::uint64_t ctx) {
    const AttrHandle h = at.on_submit(0, 1, false, true, 0, 8, Time::from_us(0),
                                      ctx);
    at.on_complete(h, Time::from_us(5));
  };
  submit_done(10'000);                     // shared namespace
  submit_done(kJobCtxWindow + 10'000);     // job 0
  submit_done(3 * kJobCtxWindow + 20'000); // job 2
  submit_done(kJobCtxWindow + 10'999);     // job 0 again — same key

  ASSERT_EQ(at.n_keys(), 3u);
  EXPECT_EQ(Attribution::key_name(at.key_at(0)), "host0.vm1.read.sync.ph0");
  EXPECT_EQ(Attribution::key_name(at.key_at(1)), "host0.vm1.job0.read.sync.ph0");
  EXPECT_EQ(Attribution::key_name(at.key_at(2)), "host0.vm1.job2.read.sync.ph0");
  EXPECT_EQ(at.lane(1, Lane::kTotal).count(), 2u);
}

TEST(Attribution, PhaseClampsToSixBits) {
  Attribution at;
  at.set_phase(-5);
  EXPECT_EQ(at.phase(), 0);
  at.set_phase(999);
  EXPECT_EQ(at.phase(), 63);
}

TEST(Attribution, RecordsRecycleAfterCompletion) {
  Attribution at;
  const AttrHandle h1 = walk(at, 0, 1, 2, 3, 4, 5);
  // The record was recycled, so the next submit reuses the same arena slot.
  const AttrHandle h2 = walk(at, 10, 11, 12, 13, 14, 15);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(at.records_created(), 2u);
  EXPECT_EQ(at.records_completed(), 2u);
  EXPECT_EQ(at.records_live(), 0u);
  // Two live records at once get distinct slots.
  const AttrHandle a = at.on_submit(0, 0, false, true, 0, 8, Time::from_us(0));
  const AttrHandle b = at.on_submit(0, 0, false, true, 8, 8, Time::from_us(1));
  EXPECT_NE(a, b);
  EXPECT_EQ(at.records_live(), 2u);
}

TEST(Attribution, HooksIgnoreNoAttrAndStaleHandles) {
  Attribution at;
  at.on_guest_dispatch(kNoAttr, Time::from_us(1));
  at.on_dom0_arrive(kNoAttr, Time::from_us(1), 0, 0, 0);
  at.on_complete(kNoAttr, Time::from_us(1));
  at.on_complete(777, Time::from_us(1));  // out-of-range handle
  EXPECT_EQ(at.records_created(), 0u);
  EXPECT_EQ(at.records_completed(), 0u);
  EXPECT_EQ(at.n_keys(), 0u);
}

TEST(Attribution, StallDetectorFiresAboveArmedThreshold) {
  StallConfig stall;
  stall.factor = 1.5;
  stall.floor = Time::from_us(100);
  stall.min_samples = 8;
  Attribution at(stall);

  // 8 well-behaved sync reads (~250µs total each) arm the detector; the
  // detector compares against history *before* each request joins it, so
  // none of these can trip on themselves.
  for (int i = 0; i < 8; ++i) {
    const std::int64_t t0 = i * 1000;
    walk(at, t0, t0 + 10, t0 + 60, t0 + 100, t0 + 200, t0 + 250);
  }
  EXPECT_EQ(at.stalls_total(), 0u);

  // A 10ms outlier: way past max(100µs floor, 1.5 * p99(~250µs)). Its Dom0
  // snapshot says five writes were ahead of it — the paper's smoking gun.
  const std::int64_t t0 = 100'000;
  walk(at, t0, t0 + 10, t0 + 60, t0 + 9000, t0 + 9950, t0 + 10'000,
       /*is_write=*/false, /*sync=*/true, /*reads_ahead=*/0,
       /*writes_ahead=*/5);

  EXPECT_EQ(at.stalls_total(), 1u);
  ASSERT_EQ(at.stalls().size(), 1u);
  const StallEvent& ev = at.stalls()[0];
  EXPECT_EQ(ev.total_ns, 10'000'000);
  EXPECT_GT(ev.threshold_ns, 0);
  EXPECT_LT(ev.threshold_ns, ev.total_ns);
  EXPECT_EQ(ev.writes_ahead, 5u);
  EXPECT_EQ(ev.reads_ahead, 0u);
  EXPECT_EQ(ev.lane_ns[static_cast<int>(Lane::kTotal)], 10'000'000);
  // The outlier spent its time waiting in the Dom0 elevator behind those
  // writes: elv_wait is the dominant lane of the stalled request.
  EXPECT_EQ(ev.lane_ns[static_cast<int>(Lane::kElvWait)], 8'940'000);

  // Below threshold again: no new stall.
  const std::int64_t t1 = 200'000;
  walk(at, t1, t1 + 10, t1 + 60, t1 + 100, t1 + 200, t1 + 250);
  EXPECT_EQ(at.stalls_total(), 1u);
}

TEST(Attribution, StallLogIsBoundedButCountIsNot) {
  StallConfig stall;
  stall.factor = 1.0;
  stall.floor = Time::from_us(1);
  stall.min_samples = 1;
  stall.max_log = 2;
  Attribution at(stall);
  // First request arms the key; every later one is 10x slower than history
  // ever saw, so each trips the detector.
  walk(at, 0, 1, 2, 3, 4, 5);
  for (int i = 1; i <= 5; ++i) {
    const std::int64_t t0 = i * 100'000;
    walk(at, t0, t0 + 10, t0 + 60, t0 + 100, t0 + 200, t0 + 50'000 * i);
  }
  EXPECT_EQ(at.stalls_total(), 5u);
  EXPECT_EQ(at.stalls().size(), 2u);  // log capped at max_log
}

TEST(Attribution, PublishEmitsPerLaneGauges) {
  Attribution at;
  walk(at, 0, 10, 60, 100, 200, 250);
  trace::Registry reg;
  at.publish(reg);

  bool saw_elv_sum = false, saw_records = false;
  for (const auto& item : reg.items()) {
    if (item.name == "obs.host0.vm1.read.sync.ph0.elv_wait.sum_ns") {
      saw_elv_sum = true;
      EXPECT_EQ(reg.gauge_at(item.idx).value(), 40'000.0);
    }
    if (item.name == "obs.records_completed") {
      saw_records = true;
      EXPECT_EQ(reg.gauge_at(item.idx).value(), 1.0);
    }
  }
  EXPECT_TRUE(saw_elv_sum);
  EXPECT_TRUE(saw_records);
}

TEST(AttributionSession, InstallsAndRestoresThreadLocal) {
  EXPECT_EQ(attribution(), nullptr);
  {
    AttributionSession outer;
    EXPECT_EQ(attribution(), &outer.attribution());
    {
      AttributionSession inner;
      EXPECT_EQ(attribution(), &inner.attribution());
    }
    EXPECT_EQ(attribution(), &outer.attribution());
  }
  EXPECT_EQ(attribution(), nullptr);
}

}  // namespace
}  // namespace iosim::obs
