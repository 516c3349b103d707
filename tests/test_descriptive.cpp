#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/descriptive.hpp"

namespace sci::stats {
namespace {

TEST(Means, PaperHplExampleValues) {
  // Section 3.1.1: times (10, 100, 40) s for 100 Gflop.
  const std::vector<double> times = {10.0, 100.0, 40.0};
  EXPECT_NEAR(arithmetic_mean(times), 50.0, 1e-12);  // -> 2 Gflop/s
  const std::vector<double> rates = {10.0, 1.0, 2.5};  // Gflop/s per run
  EXPECT_NEAR(arithmetic_mean(rates), 4.5, 1e-12);     // the wrong summary
  EXPECT_NEAR(harmonic_mean(rates), 2.0, 1e-12);       // the right one
}

TEST(Means, GeometricKnownValue) {
  const std::vector<double> v = {1.0, 0.1, 0.25};
  EXPECT_NEAR(geometric_mean(v), std::cbrt(0.025), 1e-12);  // ~0.292
}

TEST(Means, MeanInequalityChain) {
  // AM >= GM >= HM for positive data (Gwanyama).
  rng::Xoshiro256 gen(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v;
    for (int i = 0; i < 20; ++i) v.push_back(rng::uniform(gen, 0.1, 10.0));
    const double am = arithmetic_mean(v);
    const double gm = geometric_mean(v);
    const double hm = harmonic_mean(v);
    EXPECT_GE(am, gm - 1e-12);
    EXPECT_GE(gm, hm - 1e-12);
  }
}

TEST(Means, RejectEmptyAndNonPositive) {
  const std::vector<double> empty;
  EXPECT_THROW((void)arithmetic_mean(empty), std::invalid_argument);
  const std::vector<double> with_zero = {1.0, 0.0};
  EXPECT_THROW((void)harmonic_mean(with_zero), std::domain_error);
  EXPECT_THROW((void)geometric_mean(with_zero), std::domain_error);
}

TEST(Variance, MatchesHandComputation) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // mean 5, sum of squares 32, n-1 = 7.
  EXPECT_NEAR(sample_variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(sample_stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(coefficient_of_variation(v), std::sqrt(32.0 / 7.0) / 5.0, 1e-12);
}

TEST(Variance, SingleSampleIsZero) {
  const std::vector<double> v = {3.0};
  EXPECT_EQ(sample_variance(v), 0.0);
}

TEST(Moments, SkewAndKurtosisOfSymmetricData) {
  const std::vector<double> v = {-2, -1, 0, 1, 2};
  EXPECT_NEAR(skewness(v), 0.0, 1e-12);
  // Uniform-ish: platykurtic, negative excess kurtosis.
  EXPECT_LT(excess_kurtosis(v), 0.0);
}

TEST(Moments, RightSkewPositive) {
  const std::vector<double> v = {1, 1, 1, 1, 10};
  EXPECT_GT(skewness(v), 1.0);
}

TEST(Quantile, MedianOddEven) {
  const std::vector<double> odd = {3.0, 1.0, 2.0};
  EXPECT_EQ(median(odd), 2.0);
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_NEAR(median(even), 2.5, 1e-12);  // R7 interpolation
}

TEST(Quantile, R1AlwaysReturnsObservedValue) {
  const std::vector<double> v = {5.0, 1.0, 9.0, 3.0, 7.0};
  for (double p : {0.01, 0.2, 0.35, 0.5, 0.77, 0.99}) {
    const double q = quantile(v, p, QuantileMethod::kR1InverseEcdf);
    EXPECT_TRUE(q == 1.0 || q == 3.0 || q == 5.0 || q == 7.0 || q == 9.0) << p;
  }
}

class QuantileMethods : public ::testing::TestWithParam<QuantileMethod> {};

TEST_P(QuantileMethods, MonotoneInP) {
  rng::Xoshiro256 gen(3);
  std::vector<double> v;
  for (int i = 0; i < 101; ++i) v.push_back(rng::normal(gen));
  double prev = quantile(v, 0.0, GetParam());
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const double q = quantile(v, p, GetParam());
    EXPECT_GE(q, prev - 1e-12);
    prev = q;
  }
}

TEST_P(QuantileMethods, ExtremesAreMinMax) {
  const std::vector<double> v = {4.0, -1.0, 2.5, 8.0};
  EXPECT_EQ(quantile(v, 0.0, GetParam()), -1.0);
  EXPECT_EQ(quantile(v, 1.0, GetParam()), 8.0);
}

TEST_P(QuantileMethods, RejectsPOutsideUnitIntervalIncludingNaN) {
  const std::vector<double> v = {4.0, -1.0, 2.5, 8.0};
  const std::vector<double> sorted = {-1.0, 2.5, 4.0, 8.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {-0.1, 1.1, nan, -nan}) {
    EXPECT_THROW((void)quantile(v, p, GetParam()), std::domain_error) << p;
    EXPECT_THROW((void)quantile_sorted(sorted, p, GetParam()), std::domain_error) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, QuantileMethods,
                         ::testing::Values(QuantileMethod::kR1InverseEcdf,
                                           QuantileMethod::kR6Weibull,
                                           QuantileMethod::kR7Linear));

TEST(BoxStats, FiveNumberSummaryAndWhiskers) {
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);  // 1..11
  v.push_back(100.0);                            // clear outlier
  const auto b = box_stats(v);
  EXPECT_EQ(b.n, 12u);
  EXPECT_EQ(b.min, 1.0);
  EXPECT_EQ(b.max, 100.0);
  EXPECT_EQ(b.outliers_high, 1u);
  EXPECT_EQ(b.outliers_low, 0u);
  EXPECT_EQ(b.whisker_high, 11.0);  // highest non-outlier
  EXPECT_EQ(b.whisker_low, 1.0);
  EXPECT_GT(b.iqr, 0.0);
}

TEST(OnlineMoments, MatchesTwoPass) {
  rng::Xoshiro256 gen(4);
  std::vector<double> v;
  OnlineMoments om;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng::lognormal(gen, 0.0, 1.0);
    v.push_back(x);
    om.add(x);
  }
  EXPECT_EQ(om.count(), v.size());
  EXPECT_NEAR(om.mean(), arithmetic_mean(v), 1e-9);
  EXPECT_NEAR(om.variance(), sample_variance(v), 1e-7);
  EXPECT_EQ(om.min(), min_value(v));
  EXPECT_EQ(om.max(), max_value(v));
}

TEST(OnlineMoments, MergeEqualsSequential) {
  rng::Xoshiro256 gen(5);
  OnlineMoments all, left, right;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng::normal(gen, 2.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
}

TEST(OnlineMoments, MergeWithEmpty) {
  OnlineMoments a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 2.0, 1e-12);
}

TEST(Midranks, HandlesTies) {
  const std::vector<double> v = {10.0, 20.0, 20.0, 30.0};
  const auto r = midranks(v);
  EXPECT_EQ(r[0], 1.0);
  EXPECT_EQ(r[1], 2.5);
  EXPECT_EQ(r[2], 2.5);
  EXPECT_EQ(r[3], 4.0);
}

TEST(Midranks, AllTiedGetAverageRank) {
  const std::vector<double> v = {7.0, 7.0, 7.0};
  const auto r = midranks(v);
  for (double x : r) EXPECT_EQ(x, 2.0);
}

}  // namespace
}  // namespace sci::stats
