// iosim: small online-statistics helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace iosim::sim {

/// Welford online mean/variance accumulator.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  void reset() { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Nearest-rank percentile: the value at rank ⌈p·n⌉ of the sorted samples
/// (p in [0,1]; p=0 returns the minimum). It never interpolates — the
/// result is always an observed sample, which keeps small-n aggregates (the
/// experiment engine's 3-repeat points) honest and byte-stable.
inline double percentile_nearest_rank(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  p = std::clamp(p, 0.0, 1.0);
  const auto n = xs.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return xs[rank - 1];
}

/// Two-sided Student-t critical value at 95% confidence for `df` degrees of
/// freedom. Exact table for df <= 30, stepped values to df = 120, then the
/// normal limit 1.960. df = 0 (a single sample) has no finite interval; we
/// return 0 so the caller's half-width collapses to "no interval".
inline double t_critical_95(std::uint64_t df) {
  static constexpr double kTable[31] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228,  2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086,  2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (df <= 30) return kTable[df];
  if (df <= 40) return 2.021;
  if (df <= 60) return 2.000;
  if (df <= 120) return 1.980;
  return 1.960;
}

/// Half-width of the 95% confidence interval of the mean from `n` samples
/// with sample standard deviation `stddev`: t_{0.975, n-1} · s / √n.
/// 0 for n < 2 (no dispersion estimate from one sample).
inline double ci95_halfwidth(double stddev, std::uint64_t n) {
  if (n < 2) return 0.0;
  return t_critical_95(n - 1) * stddev / std::sqrt(static_cast<double>(n));
}

/// Batch summary of one metric across the repeats of a scenario point:
/// the aggregate the experiment engine reports per cell of a sweep.
struct Summary {
  std::uint64_t n = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double ci95 = 0.0;  // 95% CI half-width of the mean (Student t)
};

inline Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  RunningStat rs;
  for (double x : xs) rs.add(x);
  s.mean = rs.mean();
  s.min = rs.min();
  s.max = rs.max();
  s.p50 = percentile_nearest_rank(xs, 0.50);
  s.p95 = percentile_nearest_rank(xs, 0.95);
  s.ci95 = ci95_halfwidth(rs.stddev(), s.n);
  return s;
}

/// Jain's fairness index over a set of allocations: (Σx)² / (n·Σx²).
/// 1.0 = perfectly fair; 1/n = maximally unfair. Used for the Fig. 3 style
/// "CFQ is fairer across VMs" observation.
inline double jain_fairness(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double s = 0.0, s2 = 0.0;
  for (double x : xs) {
    s += x;
    s2 += x * x;
  }
  if (s2 == 0.0) return 1.0;
  return (s * s) / (static_cast<double>(xs.size()) * s2);
}

}  // namespace iosim::sim
