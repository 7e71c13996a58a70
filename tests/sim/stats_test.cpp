#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/random.hpp"

namespace iosim::sim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStat, MatchesNaiveOnRandomData) {
  Rng r(1);
  RunningStat s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(0, 100);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(JainFairness, PerfectlyFair) {
  EXPECT_DOUBLE_EQ(jain_fairness({5, 5, 5, 5}), 1.0);
}

TEST(JainFairness, MaximallyUnfair) {
  EXPECT_NEAR(jain_fairness({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainFairness, EmptyAndZero) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0, 0}), 1.0);
}

TEST(JainFairness, ScaleInvariant) {
  const std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b;
  for (double x : a) b.push_back(x * 17.0);
  EXPECT_NEAR(jain_fairness(a), jain_fairness(b), 1e-12);
}

TEST(JainFairness, BoundedBetweenInverseNAndOne) {
  Rng r(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs;
    for (int i = 0; i < 8; ++i) xs.push_back(r.uniform(0.1, 10.0));
    const double f = jain_fairness(xs);
    EXPECT_GE(f, 1.0 / 8.0 - 1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

TEST(PercentileNearestRank, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.0}, 1.0), 7.0);
}

TEST(PercentileNearestRank, TwoSamples) {
  // rank ⌈p·2⌉: p=0.5 -> rank 1 (lower), p=0.51 -> rank 2 (upper).
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({3.0, 9.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({9.0, 3.0}, 0.51), 9.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({3.0, 9.0}, 1.0), 9.0);
  // p outside [0, 1] clamps to the extremes.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({3.0, 9.0}, -1.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({3.0, 9.0}, 2.0), 9.0);
}

TEST(PercentileNearestRank, AlwaysAnObservedSample) {
  // Unlike interpolation, nearest rank never invents values between samples.
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double v = percentile_nearest_rank(xs, p);
    EXPECT_TRUE(std::find(xs.begin(), xs.end(), v) != xs.end()) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.95), 16.0);
}

TEST(PercentileNearestRank, SkewedSamples) {
  // A heavy outlier only shows up at the top ranks.
  const std::vector<double> xs{1.0, 1.0, 1.0, 1.0, 100.0};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.80), 1.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.81), 100.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.95), 100.0);
}

TEST(TCritical95, TableValues) {
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);     // undefined: collapses CI to 0
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);  // n=2
  EXPECT_DOUBLE_EQ(t_critical_95(2), 4.303);   // n=3
  EXPECT_DOUBLE_EQ(t_critical_95(9), 2.262);
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(t_critical_95(40), 2.021);
  EXPECT_DOUBLE_EQ(t_critical_95(120), 1.980);
  EXPECT_DOUBLE_EQ(t_critical_95(10000), 1.960);
}

TEST(TCritical95, MonotoneNonIncreasing) {
  for (std::uint64_t df = 1; df < 200; ++df) {
    EXPECT_GE(t_critical_95(df), t_critical_95(df + 1)) << "df=" << df;
  }
}

TEST(Ci95Halfwidth, NoIntervalBelowTwoSamples) {
  EXPECT_DOUBLE_EQ(ci95_halfwidth(5.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ci95_halfwidth(5.0, 1), 0.0);
}

TEST(Ci95Halfwidth, TwoSamplesUsesT1) {
  // n=2, s known: hw = 12.706 * s / sqrt(2).
  EXPECT_NEAR(ci95_halfwidth(1.0, 2), 12.706 / std::sqrt(2.0), 1e-12);
}

TEST(Summarize, EmptyIsAllZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(Summarize, SingleSample) {
  const Summary s = summarize({4.5});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
  EXPECT_DOUBLE_EQ(s.min, 4.5);
  EXPECT_DOUBLE_EQ(s.max, 4.5);
  EXPECT_DOUBLE_EQ(s.p50, 4.5);
  EXPECT_DOUBLE_EQ(s.p95, 4.5);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);  // no dispersion estimate from one sample
}

TEST(Summarize, TwoSamples) {
  const Summary s = summarize({2.0, 6.0});
  EXPECT_EQ(s.n, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);  // nearest rank: lower of the two
  EXPECT_DOUBLE_EQ(s.p95, 6.0);
  // s = sqrt(((2-4)^2 + (6-4)^2) / 1) = 2√2; hw = 12.706 · 2√2/√2 = 25.412.
  EXPECT_NEAR(s.ci95, 25.412, 1e-9);
}

TEST(Summarize, SkewedSamples) {
  const Summary s = summarize({1.0, 1.0, 1.0, 1.0, 100.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_NEAR(s.mean, 20.8, 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 1.0);    // the median ignores the outlier...
  EXPECT_DOUBLE_EQ(s.p95, 100.0);  // ...the tail percentile catches it
  EXPECT_GT(s.ci95, 0.0);
  // Order of samples must not matter.
  const Summary t = summarize({100.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(s.p50, t.p50);
  EXPECT_DOUBLE_EQ(s.ci95, t.ci95);
}

}  // namespace
}  // namespace iosim::sim
