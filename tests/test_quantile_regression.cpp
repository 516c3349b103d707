#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "oracle/simplex.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_regression.hpp"

namespace sci::stats {
namespace {

TEST(QuantReg, InterceptOnlyEqualsSampleQuantile) {
  // With no regressors, the tau-quantile-regression intercept is a
  // tau-quantile of y (any minimizer of the check loss).
  rng::Xoshiro256 gen(1);
  std::vector<double> y;
  for (int i = 0; i < 101; ++i) y.push_back(rng::lognormal(gen, 0.0, 1.0));
  for (double tau : {0.25, 0.5, 0.9}) {
    const auto fit = quantile_regression(y, {}, tau);
    ASSERT_TRUE(fit.converged);
    // The LP optimum must lie between neighboring order statistics of
    // the R1 quantile; with n=101 and these taus it's an exact order stat.
    EXPECT_NEAR(fit.coefficients[0], quantile(y, tau, QuantileMethod::kR1InverseEcdf),
                1e-9)
        << tau;
  }
}

TEST(QuantReg, BinaryFactorEqualsGroupQuantileDifference) {
  // The Figure 4 design: y ~ intercept + indicator(system). The fitted
  // coefficients are the group quantile and the between-group difference.
  rng::Xoshiro256 gen(2);
  std::vector<double> y;
  std::vector<std::vector<double>> x;
  std::vector<double> g0, g1;
  for (int i = 0; i < 75; ++i) {
    const double a = rng::lognormal(gen, 0.0, 0.4);
    const double b = rng::lognormal(gen, 0.3, 0.6);
    y.push_back(a);
    x.push_back({0.0});
    g0.push_back(a);
    y.push_back(b);
    x.push_back({1.0});
    g1.push_back(b);
  }
  const double tau = 0.5;
  const auto fit = quantile_regression(y, x, tau);
  ASSERT_TRUE(fit.converged);
  const double q0 = quantile(g0, tau, QuantileMethod::kR1InverseEcdf);
  const double q1 = quantile(g1, tau, QuantileMethod::kR1InverseEcdf);
  EXPECT_NEAR(fit.coefficients[0], q0, 0.05);
  EXPECT_NEAR(fit.coefficients[0] + fit.coefficients[1], q1, 0.05);
}

TEST(QuantReg, RecoversLinearTrend) {
  // y = 2 + 3x + symmetric noise: median regression recovers the line.
  rng::Xoshiro256 gen(3);
  std::vector<double> y;
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 200; ++i) {
    const double xi = rng::uniform(gen, 0.0, 10.0);
    x.push_back({xi});
    y.push_back(2.0 + 3.0 * xi + rng::normal(gen, 0.0, 0.5));
  }
  const auto fit = quantile_regression(y, x, 0.5);
  ASSERT_TRUE(fit.converged);
  EXPECT_NEAR(fit.coefficients[0], 2.0, 0.3);
  EXPECT_NEAR(fit.coefficients[1], 3.0, 0.06);
}

TEST(QuantReg, SweepIsMonotoneInTau) {
  rng::Xoshiro256 gen(4);
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) y.push_back(rng::exponential(gen, 1.0));
  const std::vector<double> taus = {0.1, 0.3, 0.5, 0.7, 0.9};
  const auto sweep = quantile_regression_sweep(y, {}, taus);
  ASSERT_EQ(sweep.size(), taus.size());
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    ASSERT_TRUE(sweep[i].converged);
    EXPECT_GE(sweep[i].coefficients[0], sweep[i - 1].coefficients[0]);
  }
}

TEST(QuantReg, ObjectiveIsCheckLoss) {
  const std::vector<double> y = {1.0, 2.0, 10.0};
  const auto fit = quantile_regression(y, {}, 0.5);
  ASSERT_TRUE(fit.converged);
  // Median = 2; loss = 0.5*(|1-2| + |10-2|) = 4.5.
  EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.objective, 4.5, 1e-9);
}

TEST(QuantReg, InputValidation) {
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(quantile_regression({}, {}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_regression(y, {}, 0.0), std::domain_error);
  EXPECT_THROW(quantile_regression(y, {}, 1.0), std::domain_error);
  EXPECT_THROW(quantile_regression(y, {}, std::nan("")), std::domain_error);
  const std::vector<std::vector<double>> ragged = {{1.0}, {1.0, 2.0}};
  EXPECT_THROW(quantile_regression(y, ragged, 0.5), std::invalid_argument);

  // Non-finite values anywhere in the response or the design.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> x = {{0.0}, {1.0}, {2.0}};
  for (double bad : {std::nan(""), inf, -inf}) {
    const std::vector<double> yb = {1.0, bad, 3.0};
    EXPECT_THROW(quantile_regression(yb, {}, 0.5), std::invalid_argument) << bad;
    EXPECT_THROW(quantile_regression(yb, x, 0.5), std::invalid_argument) << bad;
    const std::vector<std::vector<double>> xb = {{0.0}, {1.0}, {bad}};
    EXPECT_THROW(quantile_regression(std::vector<double>{1.0, 2.0, 3.0}, xb, 0.5),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW((void)quantile_regression_sweep(yb, x, std::vector<double>{0.5}),
                 std::invalid_argument)
        << bad;
  }
}

TEST(QuantReg, BootstrapCiBracketsEstimate) {
  rng::Xoshiro256 gen(5);
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) y.push_back(rng::lognormal(gen, 1.0, 0.5));
  const auto fit = quantile_regression(y, {}, 0.5);
  const auto ci = quantile_regression_bootstrap_ci(y, {}, 0.5, 100, 0.95, 42);
  ASSERT_EQ(ci.lower.size(), 1u);
  EXPECT_LE(ci.lower[0], fit.coefficients[0] + 1e-12);
  EXPECT_GE(ci.upper[0], fit.coefficients[0] - 1e-12);
  EXPECT_GT(ci.upper[0], ci.lower[0]);
}

// ------------------------------------------------ simplex oracle

enum class Shape {
  kIntercept,     // p = 1, continuous y
  kLine,          // p = 2, continuous x and y
  kPlane,         // p = 3, continuous
  kBinary,        // p = 2, the Figure 4 indicator design
  kDuplicatedX,   // p = 2, x in {0..4}
  kTiedY,         // p = 2, integer x and y: ties and degenerate vertices
  kConstantY,     // p = 2, every residual of the optimum is zero
  kBinaryTiedY,   // p = 3, two indicators, integer y
  kTrend,         // p = 2, x = index (the trend detector's design)
};

struct Sample {
  std::vector<double> y;
  std::vector<std::vector<double>> x;
};

Sample make_sample(Shape shape, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Sample s;
  for (std::size_t i = 0; i < n; ++i) {
    const auto pick = [&](std::uint64_t k) { return static_cast<double>(rng::uniform_below(gen, k)); };
    switch (shape) {
      case Shape::kIntercept:
        s.y.push_back(rng::lognormal(gen, 0.0, 1.0));
        break;
      case Shape::kLine: {
        const double x = rng::uniform(gen, 0.0, 10.0);
        s.x.push_back({x});
        s.y.push_back(1.0 + 0.5 * x + rng::lognormal(gen, 0.0, 0.5));
        break;
      }
      case Shape::kPlane: {
        const double x1 = rng::uniform(gen, 0.0, 5.0);
        const double x2 = rng::normal(gen, 0.0, 1.0);
        s.x.push_back({x1, x2});
        s.y.push_back(2.0 - x1 + 3.0 * x2 + rng::normal(gen, 0.0, 1.0));
        break;
      }
      case Shape::kBinary: {
        const double g = pick(2);
        s.x.push_back({g});
        s.y.push_back(rng::lognormal(gen, 0.3 * g, 0.4 + 0.2 * g));
        break;
      }
      case Shape::kDuplicatedX: {
        const double x = pick(5);
        s.x.push_back({x});
        s.y.push_back(1.0 + x + rng::normal(gen, 0.0, 1.0));
        break;
      }
      case Shape::kTiedY: {
        const double x = pick(4);
        s.x.push_back({x});
        s.y.push_back(std::floor(0.5 * x + rng::uniform(gen, 0.0, 3.0)));
        break;
      }
      case Shape::kConstantY:
        s.x.push_back({rng::uniform(gen, 0.0, 1.0)});
        s.y.push_back(3.5);
        break;
      case Shape::kBinaryTiedY: {
        const double g1 = pick(2);
        const double g2 = pick(2);
        s.x.push_back({g1, g2});
        s.y.push_back(std::floor(2.0 * g1 - g2 + rng::uniform(gen, 0.0, 4.0)));
        break;
      }
      case Shape::kTrend: {
        const double x = static_cast<double>(i);
        s.x.push_back({x});
        s.y.push_back(3.0 + 1e-3 * x + rng::normal(gen, 0.0, 0.05));
        break;
      }
    }
  }
  return s;
}

double check_loss_of(const Sample& s, const std::vector<double>& b, double tau) {
  double loss = 0.0;
  for (std::size_t i = 0; i < s.y.size(); ++i) {
    double fit = b[0];
    if (!s.x.empty()) {
      for (std::size_t j = 0; j < s.x[i].size(); ++j) fit += b[1 + j] * s.x[i][j];
    }
    const double u = s.y[i] - fit;
    loss += u >= 0.0 ? tau * u : (tau - 1.0) * u;
  }
  return loss;
}

constexpr double kOracleTaus[] = {0.02, 0.1, 0.25, 0.5, 0.9, 0.98};

// Objectives, not coefficients: LP optima can tie. Sizes include n with
// integer n * tau, where the optimum is a whole edge.
void expect_matches_simplex(Shape shape, std::size_t n, std::uint64_t seed,
                            std::span<const double> taus) {
  const Sample s = make_sample(shape, n, seed);
  for (double tau : taus) {
    SCOPED_TRACE("n=" + std::to_string(n) + " tau=" + std::to_string(tau));
    const auto fit = quantile_regression(s.y, s.x, tau);
    const auto lp = oracle::quantile_regression_lp(s.y, s.x, tau);
    ASSERT_TRUE(lp.converged);
    ASSERT_TRUE(fit.converged);
    ASSERT_EQ(fit.coefficients.size(), (s.x.empty() ? 0 : s.x[0].size()) + 1);
    const double tol = 1e-9 * std::max(1.0, std::fabs(lp.objective));
    EXPECT_NEAR(fit.objective, lp.objective, tol);
    // The reported objective is the check loss of the returned vertex.
    EXPECT_NEAR(fit.objective, check_loss_of(s, fit.coefficients, tau), tol);
  }
}

class QuantRegOracle : public ::testing::TestWithParam<Shape> {};

TEST_P(QuantRegOracle, ObjectiveMatchesSimplex) {
  std::uint64_t seed = 100 + static_cast<std::uint64_t>(GetParam()) * 1000;
  for (std::size_t n : {5, 6, 10, 20, 50, 100, 150}) {
    expect_matches_simplex(GetParam(), n, ++seed, kOracleTaus);
  }
}

std::string shape_name(const ::testing::TestParamInfo<Shape>& param) {
  constexpr const char* kNames[] = {"Intercept",   "Line",  "Plane",     "Binary",
                                    "DuplicatedX", "TiedY", "ConstantY", "BinaryTiedY",
                                    "Trend"};
  return kNames[static_cast<int>(param.param)];
}

INSTANTIATE_TEST_SUITE_P(Shapes, QuantRegOracle,
                         ::testing::Values(Shape::kIntercept, Shape::kLine, Shape::kPlane,
                                           Shape::kBinary, Shape::kDuplicatedX, Shape::kTiedY,
                                           Shape::kConstantY, Shape::kBinaryTiedY,
                                           Shape::kTrend),
                         shape_name);

TEST(QuantReg, ObjectiveMatchesSimplexAtFiveHundred) {
  const double taus[] = {0.1, 0.9};
  expect_matches_simplex(Shape::kBinary, 500, 77, taus);
}

// Solves the p x p system  a' v = g  (a row-major) by Gaussian
// elimination with partial pivoting.
std::vector<double> solve_transposed(std::vector<double> a, std::vector<double> g,
                                     std::size_t p) {
  std::vector<double> at(p * p);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t c = 0; c < p; ++c) at[r * p + c] = a[c * p + r];
  }
  for (std::size_t k = 0; k < p; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < p; ++r) {
      if (std::fabs(at[r * p + k]) > std::fabs(at[piv * p + k])) piv = r;
    }
    for (std::size_t c = 0; c < p; ++c) std::swap(at[k * p + c], at[piv * p + c]);
    std::swap(g[k], g[piv]);
    for (std::size_t r = k + 1; r < p; ++r) {
      const double f = at[r * p + k] / at[k * p + k];
      for (std::size_t c = k; c < p; ++c) at[r * p + c] -= f * at[k * p + c];
      g[r] -= f * g[k];
    }
  }
  std::vector<double> v(p);
  for (std::size_t k = p; k-- > 0;) {
    double t = g[k];
    for (std::size_t c = k + 1; c < p; ++c) t -= at[k * p + c] * v[c];
    v[k] = t / at[k * p + k];
  }
  return v;
}

// KKT certificate without the oracle, at sizes the simplex cannot reach.
// On data in general position the fit interpolates exactly p
// observations h, and Koenker's subgradient condition
//   -tau <= xi_h <= 1 - tau,  xi_h' = sum_{i not in h} psi_tau(r_i) x_i' X_h^-1,
// psi_tau(u) = tau - 1(u < 0), certifies it optimal.
TEST(QuantReg, SubgradientCertificateAtScale) {
  struct Scale {
    Shape shape;
    std::size_t n;
  };
  for (const Scale sc : {Scale{Shape::kLine, 1000}, Scale{Shape::kPlane, 2000},
                         Scale{Shape::kLine, 10000}, Scale{Shape::kTrend, 10000}}) {
    const Sample s = make_sample(sc.shape, sc.n, 9000 + sc.n);
    const std::size_t p = s.x[0].size() + 1;
    double yscale = 0.0;
    for (double v : s.y) yscale = std::max(yscale, std::fabs(v));
    for (double tau : {0.1, 0.5, 0.9}) {
      SCOPED_TRACE("n=" + std::to_string(sc.n) + " p=" + std::to_string(p) +
                   " tau=" + std::to_string(tau));
      const auto fit = quantile_regression(s.y, s.x, tau);
      ASSERT_TRUE(fit.converged);
      EXPECT_NEAR(fit.objective, check_loss_of(s, fit.coefficients, tau),
                  1e-12 * fit.objective);
      std::vector<std::size_t> h;
      std::vector<double> r(sc.n);
      for (std::size_t i = 0; i < sc.n; ++i) {
        double fitted = fit.coefficients[0];
        for (std::size_t j = 0; j + 1 < p; ++j) fitted += fit.coefficients[1 + j] * s.x[i][j];
        r[i] = s.y[i] - fitted;
        if (std::fabs(r[i]) <= 1e-12 * yscale) h.push_back(i);
      }
      ASSERT_EQ(h.size(), p);
      std::vector<double> xh(p * p), g(p, 0.0);
      for (std::size_t j = 0; j < p; ++j) {
        xh[j * p] = 1.0;
        for (std::size_t c = 1; c < p; ++c) xh[j * p + c] = s.x[h[j]][c - 1];
      }
      for (std::size_t i = 0; i < sc.n; ++i) {
        if (std::find(h.begin(), h.end(), i) != h.end()) continue;
        const double psi = tau - (r[i] < 0.0 ? 1.0 : 0.0);
        g[0] += psi;
        for (std::size_t c = 1; c < p; ++c) g[c] += psi * s.x[i][c - 1];
      }
      const auto xi = solve_transposed(xh, g, p);
      for (std::size_t j = 0; j < p; ++j) {
        EXPECT_GE(xi[j], -tau - 1e-9) << j;
        EXPECT_LE(xi[j], 1.0 - tau + 1e-9) << j;
      }
    }
  }
}

// Massive ties (integer latencies on a binary design, and a constant
// response) at sizes where a one-observation-per-pivot finish would be
// quadratic: the fit still lands on the group quantiles' check loss.
TEST(QuantReg, HeavyTiesAtScaleReachTheOptimum) {
  const std::size_t n = 20000;
  const Sample s = make_sample(Shape::kTiedY, n, 4242);
  Sample binary;
  std::vector<double> g0, g1;
  for (std::size_t i = 0; i < n; ++i) {
    const bool one = s.x[i][0] >= 2.0;
    binary.x.push_back({one ? 1.0 : 0.0});
    binary.y.push_back(s.y[i]);
    (one ? g1 : g0).push_back(s.y[i]);
  }
  for (double tau : {0.1, 0.5, 0.9}) {
    const auto fit = quantile_regression(binary.y, binary.x, tau);
    ASSERT_TRUE(fit.converged) << tau;
    const double q0 = quantile(g0, tau, QuantileMethod::kR1InverseEcdf);
    const double q1 = quantile(g1, tau, QuantileMethod::kR1InverseEcdf);
    const double optimum = check_loss_of(binary, {q0, q1 - q0}, tau);
    EXPECT_NEAR(fit.objective, optimum, 1e-9 * optimum) << tau;
  }
  const Sample flat = make_sample(Shape::kConstantY, n, 4343);
  const auto fit = quantile_regression(flat.y, flat.x, 0.3);
  ASSERT_TRUE(fit.converged);
  EXPECT_EQ(fit.objective, 0.0);
  EXPECT_DOUBLE_EQ(fit.coefficients[0], 3.5);
  EXPECT_NEAR(fit.coefficients[1], 0.0, 1e-12);
}

// A column in the span of the others (an all-zero indicator, a copy of
// the intercept) gets coefficient 0 and the fit of the reduced design.
TEST(QuantReg, DependentColumnsAreDropped) {
  const Sample s = make_sample(Shape::kLine, 60, 31);
  Sample wide;
  for (std::size_t i = 0; i < s.y.size(); ++i) {
    wide.y.push_back(s.y[i]);
    wide.x.push_back({0.0, s.x[i][0], 1.0});
  }
  const auto narrow = quantile_regression(s.y, s.x, 0.7);
  const auto fit = quantile_regression(wide.y, wide.x, 0.7);
  ASSERT_TRUE(narrow.converged);
  ASSERT_TRUE(fit.converged);
  ASSERT_EQ(fit.coefficients.size(), 4u);
  EXPECT_EQ(fit.coefficients[1], 0.0);
  EXPECT_EQ(fit.coefficients[3], 0.0);
  EXPECT_NEAR(fit.objective, narrow.objective, 1e-12 * narrow.objective);
}

TEST(QuantReg, RepeatedCallsAreBitIdentical) {
  for (const Shape shape : {Shape::kTiedY, Shape::kLine, Shape::kBinaryTiedY}) {
    const Sample s = make_sample(shape, 2000, 5150);
    for (double tau : {0.1, 0.5, 0.98}) {
      const auto a = quantile_regression(s.y, s.x, tau);
      const auto b = quantile_regression(s.y, s.x, tau);
      ASSERT_TRUE(a.converged);
      ASSERT_EQ(a.coefficients.size(), b.coefficients.size());
      EXPECT_EQ(std::memcmp(a.coefficients.data(), b.coefficients.data(),
                            a.coefficients.size() * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&a.objective, &b.objective, sizeof(double)), 0);
    }
  }
}

}  // namespace
}  // namespace sci::stats

// ------------------------------------------------ the oracle itself

namespace sci::oracle {
namespace {

// min -x - 2y  s.t.  x + y + s1 = 4, x + 3y + s2 = 6; x,y,s >= 0.
// Optimum at (3, 1): objective -5.
TEST(Simplex, SolvesSmallLp) {
  Problem p(2, 4);
  p.set_objective(0, -1.0);
  p.set_objective(1, -2.0);
  p.set_coefficient(0, 0, 1.0);
  p.set_coefficient(0, 1, 1.0);
  p.set_coefficient(0, 2, 1.0);
  p.set_coefficient(1, 0, 1.0);
  p.set_coefficient(1, 1, 3.0);
  p.set_coefficient(1, 3, 1.0);
  p.set_rhs(0, 4.0);
  p.set_rhs(1, 6.0);

  const auto sol = p.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, -5.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-9);
}

// x = 2, minimize x: trivially feasible with unique point.
TEST(Simplex, SingleEqualityPinsVariable) {
  Problem p(1, 1);
  p.set_objective(0, 1.0);
  p.set_coefficient(0, 0, 1.0);
  p.set_rhs(0, 2.0);
  const auto sol = p.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

// x + y = -1 with x,y >= 0 is infeasible (after sign flip: -x - y = 1).
TEST(Simplex, DetectsInfeasible) {
  Problem p(1, 2);
  p.set_coefficient(0, 0, 1.0);
  p.set_coefficient(0, 1, 1.0);
  p.set_rhs(0, -1.0);
  const auto sol = p.solve();
  EXPECT_EQ(sol.status, Status::kInfeasible);
}

// min -x s.t. x - y = 0: x can grow forever with y.
TEST(Simplex, DetectsUnbounded) {
  Problem p(1, 2);
  p.set_objective(0, -1.0);
  p.set_coefficient(0, 0, 1.0);
  p.set_coefficient(0, 1, -1.0);
  p.set_rhs(0, 0.0);
  const auto sol = p.solve();
  EXPECT_EQ(sol.status, Status::kUnbounded);
}

// Negative RHS rows must be handled by the internal sign flip.
TEST(Simplex, NegativeRhsNormalized) {
  // -x - s = -3  <=>  x + s = 3; min x -> x = 0, s = 3.
  Problem p(1, 2);
  p.set_objective(0, 1.0);
  p.set_coefficient(0, 0, -1.0);
  p.set_coefficient(0, 1, -1.0);
  p.set_rhs(0, -3.0);
  const auto sol = p.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 3.0, 1e-9);
}

// Degenerate problem with a redundant row must still terminate (Bland).
TEST(Simplex, RedundantRowTerminates) {
  Problem p(2, 3);
  p.set_objective(0, 1.0);
  // x + y + z = 2 twice.
  for (std::size_t r = 0; r < 2; ++r) {
    p.set_coefficient(r, 0, 1.0);
    p.set_coefficient(r, 1, 1.0);
    p.set_coefficient(r, 2, 1.0);
    p.set_rhs(r, 2.0);
  }
  const auto sol = p.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-9);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);
}

// Feasibility at equality: x + y = 4, x - y = 2 -> (3, 1).
TEST(Simplex, SolvesSquareSystem) {
  Problem p(2, 2);
  p.set_coefficient(0, 0, 1.0);
  p.set_coefficient(0, 1, 1.0);
  p.set_rhs(0, 4.0);
  p.set_coefficient(1, 0, 1.0);
  p.set_coefficient(1, 1, -1.0);
  p.set_rhs(1, 2.0);
  const auto sol = p.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-9);
}

class SimplexScale : public ::testing::TestWithParam<std::size_t> {};

// min sum x_i s.t. x_i + s_i = i+1: optimum 0 with slack carrying rhs.
TEST_P(SimplexScale, ScalesToLargerProblems) {
  const std::size_t n = GetParam();
  Problem p(n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p.set_objective(i, 1.0);
    p.set_coefficient(i, i, 1.0);
    p.set_coefficient(i, n + i, 1.0);
    p.set_rhs(i, static_cast<double>(i + 1));
  }
  const auto sol = p.solve();
  ASSERT_EQ(sol.status, Status::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(sol.x[n + i], static_cast<double>(i + 1), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimplexScale, ::testing::Values(5, 20, 60));

}  // namespace
}  // namespace sci::oracle
