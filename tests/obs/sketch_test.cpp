// Unit tests for the log-linear quantile sketch and its windowed ring.
#include "obs/sketch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace iosim::obs {
namespace {

using sim::Time;

TEST(QuantileSketch, SmallValuesGetExactBuckets) {
  for (std::int64_t v = 0; v < QuantileSketch::kMinors; ++v) {
    EXPECT_EQ(QuantileSketch::bucket_of(v), v);
    EXPECT_EQ(QuantileSketch::bucket_lo(static_cast<int>(v)), v);
  }
  EXPECT_EQ(QuantileSketch::bucket_of(-17), 0);  // negatives clamp
}

TEST(QuantileSketch, BucketOfInt64Extremes) {
  EXPECT_EQ(QuantileSketch::bucket_of(std::numeric_limits<std::int64_t>::min()), 0);
  EXPECT_EQ(QuantileSketch::bucket_of(-1), 0);
  EXPECT_EQ(QuantileSketch::bucket_of(std::numeric_limits<std::int64_t>::max()),
            QuantileSketch::kBuckets - 1);
}

TEST(QuantileSketch, CountSumMinMax) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 0);
  for (std::int64_t v : {5, 100, 3, 1000, 7}) s.record(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.sum(), 1115);  // exact integer sum
  EXPECT_EQ(s.min(), 3);
  EXPECT_EQ(s.max(), 1000);
}

TEST(QuantileSketch, BucketBoundsAreMonotoneAndContinuous) {
  // Every bucket's lo is the previous bucket's hi: the ladder covers the
  // non-negative integers with no gaps and no overlaps.
  for (int b = 1; b < QuantileSketch::kBuckets; ++b) {
    EXPECT_EQ(QuantileSketch::bucket_lo(b), QuantileSketch::bucket_hi(b - 1))
        << "gap at bucket " << b;
    EXPECT_LT(QuantileSketch::bucket_lo(b - 1), QuantileSketch::bucket_lo(b));
  }
  // And bucket_of agrees with the bounds across the whole range.
  for (int b = 0; b < QuantileSketch::kBuckets - 1; ++b) {
    EXPECT_EQ(QuantileSketch::bucket_of(QuantileSketch::bucket_lo(b)), b);
    EXPECT_EQ(QuantileSketch::bucket_of(QuantileSketch::bucket_hi(b) - 1), b);
  }
}

TEST(QuantileSketch, RelativeErrorWithinOneMinorBucket) {
  // bucket width / bucket lo <= 1/4 for every non-exact bucket: the minor
  // split caps quantile error at ~12.5% of the value (half a bucket).
  for (int b = QuantileSketch::kMinors; b < QuantileSketch::kBuckets - 1; ++b) {
    const auto lo = QuantileSketch::bucket_lo(b);
    const auto hi = QuantileSketch::bucket_hi(b);
    EXPECT_LE(hi - lo, lo / 2) << "bucket " << b << " too wide";
  }
}

TEST(QuantileSketch, SingleValueIsExactEverywhere) {
  QuantileSketch s;
  s.record(123'456);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.sum(), 123'456);
  EXPECT_EQ(s.min(), 123'456);
  EXPECT_EQ(s.max(), 123'456);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(s.quantile(q), 123'456) << "q=" << q;
  }
}

TEST(QuantileSketch, QuantilesOfUniformStreamWithinSketchError) {
  QuantileSketch s;
  for (std::int64_t v = 1; v <= 100'000; ++v) s.record(v);
  EXPECT_EQ(s.count(), 100'000u);
  EXPECT_EQ(s.sum(), 100'000LL * 100'001 / 2);
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact = 100'000.0 * q;
    const double est = static_cast<double>(s.quantile(q));
    EXPECT_NEAR(est, exact, exact * 0.13) << "q=" << q;
  }
  // Extremes clamp into the min/max buckets (interpolation may land at the
  // bucket edge, so allow the enclosing bucket, not the exact sample).
  EXPECT_GE(s.quantile(0.0), 1);
  EXPECT_LE(s.quantile(0.0), 4);
  EXPECT_GE(s.quantile(1.0), 87'000);
  EXPECT_LE(s.quantile(1.0), 100'001);
}

TEST(QuantileSketch, MergeReproducesCombinedStreamExactly) {
  // Split one stream across three sketches in an arbitrary pattern; any
  // merge grouping must reproduce the single-sketch result bucket for
  // bucket (determinism rule: mergeable in any grouping).
  QuantileSketch whole, a, b, c;
  std::uint64_t rng = 12345;
  for (int i = 0; i < 10'000; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto v = static_cast<std::int64_t>(rng % 50'000'000);
    whole.record(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
  }
  QuantileSketch left;      // (a + b) + c
  left.merge(a);
  left.merge(b);
  left.merge(c);
  QuantileSketch right;     // c + (b + a) — different order
  QuantileSketch ba;
  ba.merge(b);
  ba.merge(a);
  right.merge(c);
  right.merge(ba);
  for (const QuantileSketch* m : {&left, &right}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_EQ(m->sum(), whole.sum());
    EXPECT_EQ(m->min(), whole.min());
    EXPECT_EQ(m->max(), whole.max());
    for (int bkt = 0; bkt < QuantileSketch::kBuckets; ++bkt) {
      ASSERT_EQ(m->bucket_count(bkt), whole.bucket_count(bkt)) << "bucket " << bkt;
    }
    for (double q : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(m->quantile(q), whole.quantile(q)) << "q=" << q;
    }
  }
}

TEST(QuantileSketch, ClearResetsEverything) {
  QuantileSketch s;
  s.record(42);
  s.record(9000);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0);
  EXPECT_EQ(s.quantile(0.5), 0);
}

TEST(WindowedSketch, ValuesExpireWithTheirFrames) {
  // 1 ms windows, 4 frames: a value recorded in window 0 is visible until
  // the ring advances 4 windows past it, then gone.
  WindowedSketch w(Time::from_ms(1), 4);
  w.record(1000, Time::from_us(500));                    // window 0
  EXPECT_EQ(w.snapshot(Time::from_us(600)).count(), 1u);
  EXPECT_EQ(w.snapshot(Time::from_ms(3)).count(), 1u);   // window 3: still live
  EXPECT_EQ(w.snapshot(Time::from_ms(4)).count(), 0u);   // window 4: expired
}

TEST(WindowedSketch, PartialExpiryKeepsRecentFrames) {
  WindowedSketch w(Time::from_ms(1), 4);
  w.record(10, Time::from_us(100));     // window 0
  w.record(20, Time::from_ms(2));       // window 2
  // At window 4 the ring spans windows 1..4: the first value fell off.
  const auto snap = w.snapshot(Time::from_ms(4));
  EXPECT_EQ(snap.count(), 1u);
  EXPECT_EQ(snap.sum(), 20);
}

TEST(WindowedSketch, LongIdleGapClearsTheWholeRing) {
  WindowedSketch w(Time::from_ms(1), 4);
  for (int i = 0; i < 4; ++i) w.record(100 + i, Time::from_ms(i));
  EXPECT_EQ(w.snapshot(Time::from_ms(3)).count(), 4u);
  EXPECT_EQ(w.snapshot(Time::from_sec(10)).count(), 0u);
}

TEST(WindowedSketch, SnapshotMergeMatchesCumulativeWithinRing) {
  // All values inside the ring span: the snapshot equals a cumulative
  // sketch of the same stream (merge determinism, again).
  WindowedSketch w(Time::from_ms(1), 8);
  QuantileSketch cum;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = (i * 7919) % 1'000'000;
    w.record(v, Time::from_us(i));  // all land in windows 0..0 (1000 µs < 1 ms? no: window 0)
    cum.record(v);
  }
  const auto snap = w.snapshot(Time::from_us(999));
  EXPECT_EQ(snap.count(), cum.count());
  EXPECT_EQ(snap.sum(), cum.sum());
  for (double q : {0.5, 0.99}) EXPECT_EQ(snap.quantile(q), cum.quantile(q));
}

}  // namespace
}  // namespace iosim::obs
