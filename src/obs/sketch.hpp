// iosim: mergeable streaming quantile sketches for latency attribution.
//
// QuantileSketch is a log-linear histogram over non-negative integers
// (latencies in ns, queue depths, MB/s): the major bucket is the value's bit
// width, a power-of-two ladder, and each major is split into four linear
// minor buckets, which caps the quantile error at ~12.5% relative. It is
// the simulator's one streaming quantile estimator: attribution lanes,
// stream-job sojourn tails and the metrics registry's histograms all use
// it. Header-only, so iosim_trace (the registry) can use it without linking
// iosim_obs, which links iosim_trace.
//
// Determinism rules (DESIGN.md §9): buckets are integer counts, record()
// and merge() are integer-only, sums are exact int64 nanoseconds, and
// quantile() derives from counts with one fixed IEEE-double interpolation —
// two same-seed runs produce bit-identical sketches, and merging per-window
// or per-VM sketches in any grouping (merge is commutative and associative
// over bucket counts) reproduces the sketch of the combined stream exactly.
//
// WindowedSketch layers time decay on top: a ring of frame sketches, each
// covering one simulated-time window; values land in the frame of their
// timestamp and frames older than the ring fall off. snapshot() merges the
// live frames, giving "the last N windows" percentiles — the online signal
// surface (a run-long cumulative sketch cannot show a regression that
// started ten seconds ago).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace iosim::obs {

class QuantileSketch {
 public:
  /// Minor buckets per power-of-two major (2 bits of mantissa kept).
  static constexpr int kMinorBits = 2;
  static constexpr int kMinors = 1 << kMinorBits;
  /// Buckets 0..kMinors-1 are exact small values; above that each major
  /// (bit width 3..63) contributes kMinors buckets.
  static constexpr int kBuckets = (64 - kMinorBits) * kMinors;

  /// Bucket index for a value; negatives clamp to bucket 0.
  static int bucket_of(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v < 0 ? 0 : v);
    if (u < kMinors) return static_cast<int>(u);  // exact buckets 0..3
    const int major = static_cast<int>(std::bit_width(u));  // >= kMinorBits + 1
    const int shift = major - kMinorBits - 1;
    const int minor = static_cast<int>((u >> shift) & (kMinors - 1));
    return (major - kMinorBits) * kMinors + minor;
  }

  /// Inclusive lower bound of bucket b.
  static std::int64_t bucket_lo(int b) {
    if (b < kMinors) return b;
    const int major = b / kMinors + kMinorBits;
    const int minor = b % kMinors;
    const int shift = major - kMinorBits - 1;
    return (std::int64_t{1} << (major - 1)) +
           (static_cast<std::int64_t>(minor) << shift);
  }

  /// Exclusive upper bound of bucket b.
  static std::int64_t bucket_hi(int b) {
    if (b + 1 >= kBuckets) return std::numeric_limits<std::int64_t>::max();
    return bucket_lo(b + 1);
  }

  void record(std::int64_t v) {
    ++buckets_[static_cast<std::size_t>(bucket_of(v))];
    if (v < 0) v = 0;
    ++n_;
    sum_ += v;
    if (n_ == 1 || v < min_) min_ = v;
    if (n_ == 1 || v > max_) max_ = v;
  }

  /// Fold another sketch in (bucket-wise add). Merging is order-independent:
  /// any grouping of partial sketches reproduces the combined stream's
  /// sketch byte for byte.
  void merge(const QuantileSketch& o) {
    if (o.n_ == 0) return;
    for (int b = 0; b < kBuckets; ++b) {
      buckets_[static_cast<std::size_t>(b)] += o.buckets_[static_cast<std::size_t>(b)];
    }
    if (n_ == 0 || o.min_ < min_) min_ = o.min_;
    if (n_ == 0 || o.max_ > max_) max_ = o.max_;
    n_ += o.n_;
    sum_ += o.sum_;
  }

  void clear() {
    std::memset(buckets_, 0, sizeof buckets_);
    n_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }

  std::uint64_t count() const { return n_; }
  /// Exact integer sum of recorded values (ns) — no float accumulation.
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return n_ ? min_ : 0; }
  std::int64_t max() const { return n_ ? max_ : 0; }
  std::uint64_t bucket_count(int b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }

  /// Estimated q-quantile (q in [0,1]), rounded to integer ns. Linear
  /// interpolation inside the selected bucket, clamped to observed
  /// min/max — exact for single-bucket distributions, within one minor
  /// bucket (~12.5%) otherwise.
  std::int64_t quantile(double q) const {
    if (n_ == 0) return 0;
    if (min_ == max_) return min_;  // degenerate: exact
    q = std::clamp(q, 0.0, 1.0);
    // Target rank in [1, n]; walk the cumulative distribution.
    const double rank = q * static_cast<double>(n_ - 1) + 1.0;
    std::uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = buckets_[static_cast<std::size_t>(b)];
      if (c == 0) continue;
      if (rank <= static_cast<double>(cum + c)) {
        const double frac = (rank - static_cast<double>(cum)) / static_cast<double>(c);
        const auto lo = static_cast<double>(std::max(bucket_lo(b), min_));
        const auto hi = static_cast<double>(std::min(bucket_hi(b), max_ + 1));
        return static_cast<std::int64_t>(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0));
      }
      cum += c;
    }
    return max_;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t n_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Ring of per-window QuantileSketches over simulated time. record() lands
/// the value in the frame covering `now` (advancing the ring and clearing
/// expired frames first); snapshot() merges the frames still covered by the
/// ring at `now`. All windowing arithmetic is integer epoch math on
/// sim::Time, so the decayed view is as deterministic as the cumulative one.
class WindowedSketch {
 public:
  WindowedSketch(sim::Time window, int frames)
      : window_ns_(window.ns() > 0 ? window.ns() : 1),
        frames_(static_cast<std::size_t>(frames > 0 ? frames : 1)) {}

  void record(std::int64_t v, sim::Time now) {
    advance(now);
    frames_[static_cast<std::size_t>(
                cur_epoch_ % static_cast<std::int64_t>(frames_.size()))]
        .record(v);
  }

  /// Merge of the frames still live at `now` (advances the ring first).
  QuantileSketch snapshot(sim::Time now) {
    advance(now);
    QuantileSketch out;
    for (const auto& f : frames_) out.merge(f);
    return out;
  }

  std::size_t frames() const { return frames_.size(); }

 private:
  void advance(sim::Time now) {
    const std::int64_t epoch = now.ns() / window_ns_;
    if (epoch <= cur_epoch_) return;
    const auto n = static_cast<std::int64_t>(frames_.size());
    if (epoch - cur_epoch_ >= n) {
      for (auto& f : frames_) f.clear();  // idle gap longer than the ring
    } else {
      for (std::int64_t e = cur_epoch_ + 1; e <= epoch; ++e) {
        frames_[static_cast<std::size_t>(e % n)].clear();
      }
    }
    cur_epoch_ = epoch;
  }

  std::int64_t window_ns_;
  std::vector<QuantileSketch> frames_;
  std::int64_t cur_epoch_ = 0;
};

}  // namespace iosim::obs
