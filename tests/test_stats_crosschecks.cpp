// Cross-validation between independent statistical implementations:
// where theory says two of our procedures must agree, test that they do.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap.hpp"
#include "stats/compare.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/independence.hpp"
#include "stats/normality.hpp"
#include "stats/ranktests.hpp"

namespace sci::stats {
namespace {

std::vector<double> normal_sample(double mean, double sd, std::size_t n,
                                  std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng::normal(gen, mean, sd));
  return v;
}

TEST(CrossCheck, AnovaWithTwoGroupsEqualsPooledTTestSquared) {
  // F(1, n) = t(n)^2 and the p-values coincide.
  const auto a = normal_sample(10.0, 2.0, 40, 1);
  const auto b = normal_sample(11.0, 2.0, 40, 2);
  const std::vector<std::vector<double>> groups = {a, b};
  const auto anova = one_way_anova(groups);
  const auto t = t_test(a, b, /*pooled=*/true);
  EXPECT_NEAR(anova.f_statistic, t.statistic * t.statistic, 1e-9);
  EXPECT_NEAR(anova.p_value, t.p_value, 1e-9);
}

TEST(CrossCheck, KruskalWallisWithTwoGroupsMatchesMannWhitney) {
  // For k = 2, KW is the (chi^2-approximated) Mann-Whitney; p-values
  // agree up to the different approximations (continuity correction).
  rng::Xoshiro256 gen(3);
  std::vector<double> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(rng::lognormal(gen, 0.0, 0.5));
    b.push_back(rng::lognormal(gen, 0.35, 0.5));
  }
  const std::vector<std::vector<double>> groups = {a, b};
  const auto kw = kruskal_wallis(groups);
  const auto mw = mann_whitney_u(a, b);
  EXPECT_EQ(kw.reject(0.05), mw.reject(0.05));
  EXPECT_NEAR(kw.p_value, mw.p_value, 0.02);
}

TEST(CrossCheck, BootstrapMedianCiAgreesWithRankCi) {
  rng::Xoshiro256 gen(4);
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(rng::lognormal(gen, 1.0, 0.6));
  const auto rank_ci = median_confidence_interval(v, 0.90);
  const auto boot_ci = bootstrap_percentile_ci(v, ResampleStat::median(), 2000, 0.90, 5);
  // Same center, comparable widths (within 2x of each other).
  EXPECT_TRUE(rank_ci.contains(median(v)));
  EXPECT_TRUE(boot_ci.contains(median(v)));
  EXPECT_LT(boot_ci.width(), 2.0 * rank_ci.width());
  EXPECT_LT(rank_ci.width(), 2.0 * boot_ci.width());
}

TEST(CrossCheck, StudentTQuantileInvertsCdf) {
  for (double dof : {2.0, 7.0, 30.0, 200.0}) {
    const StudentT t{dof};
    for (double p : {0.01, 0.3, 0.5, 0.8, 0.99}) {
      EXPECT_NEAR(t.cdf(t.quantile(p)), p, 1e-9) << dof;
    }
  }
}

TEST(CrossCheck, NormalityTestsAgreeOnClearCases) {
  const auto good = normal_sample(0.0, 1.0, 400, 6);
  EXPECT_FALSE(shapiro_wilk(good).reject(0.01));
  EXPECT_FALSE(anderson_darling(good).reject(0.01));
  EXPECT_FALSE(jarque_bera(good).reject(0.01));

  rng::Xoshiro256 gen(7);
  std::vector<double> bad;
  for (int i = 0; i < 400; ++i) bad.push_back(rng::pareto(gen, 1.0, 1.5));
  EXPECT_TRUE(shapiro_wilk(bad).reject(0.01));
  EXPECT_TRUE(anderson_darling(bad).reject(0.01));
  EXPECT_TRUE(jarque_bera(bad).reject(0.01));
}

TEST(CrossCheck, EffectiveSampleSizeConsistentWithMeanCiInflation) {
  // For AR(1) data, a CI computed from n is ~sqrt(n / n_eff) too narrow;
  // check the diagnosis and the inflation agree in direction.
  rng::Xoshiro256 gen(8);
  std::vector<double> v;
  double x = 0.0;
  for (int i = 0; i < 4000; ++i) {
    x = 0.6 * x + rng::normal(gen);
    v.push_back(x + 50.0);
  }
  const double n_eff = effective_sample_size(v);
  EXPECT_LT(n_eff, 2000.0);
  // Split-half means differ by more than the naive CI half-width implies.
  const auto first = std::vector<double>(v.begin(), v.begin() + 2000);
  const auto second = std::vector<double>(v.begin() + 2000, v.end());
  const double diff =
      std::fabs(arithmetic_mean(first) - arithmetic_mean(second));
  const double naive_half = mean_confidence_interval(v, 0.95).width() / 2.0;
  // Not a strict theorem per-seed, but with phi=0.6 and these sizes the
  // naive CI must substantially understate between-block drift.
  EXPECT_GT(diff, naive_half);
}

TEST(CrossCheck, SpearmanEqualsPearsonOnRanksForDistinctValues) {
  // With no ties, rho = 1 - 6 sum d^2 / (n(n^2-1)) (classic formula).
  const std::vector<double> x = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<double> y = {2, 1, 4, 3, 7, 5, 6};
  double d2 = 0.0;
  const std::vector<double> rank_diffs = {-1, 1, -1, 1, -2, 1, 1};
  for (double d : rank_diffs) d2 += d * d;
  const double expected = 1.0 - 6.0 * d2 / (7.0 * 48.0);
  EXPECT_NEAR(spearman(x, y).statistic, expected, 1e-12);
}

TEST(CrossCheck, QuantileCiMatchesLeBoudecWorkedRanks) {
  // n = 100, p = 0.5, 95%: z = 1.96, ranks floor(50 - 9.8) = 40 and
  // ceil(50 + 9.8) + 1 = 61 (1-based) -- check against sorted integers.
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i + 1;  // sorted 1..100
  const auto ci = quantile_confidence_interval(v, 0.5, 0.95);
  EXPECT_EQ(ci.lower, 40.0);
  EXPECT_EQ(ci.upper, 61.0);
}

}  // namespace
}  // namespace sci::stats
