#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/special_functions.hpp"

namespace sci::stats {
namespace {

TEST(RegularizedGamma, KnownValues) {
  // P(1, x) = 1 - e^-x.
  EXPECT_NEAR(regularized_gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(regularized_gamma_p(1.0, 2.5), 1.0 - std::exp(-2.5), 1e-12);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(regularized_gamma_p(0.5, 1.0), std::erf(1.0), 1e-12);
  EXPECT_NEAR(regularized_gamma_p(0.5, 4.0), std::erf(2.0), 1e-12);
}

TEST(RegularizedGamma, ComplementsSumToOne) {
  for (double a : {0.3, 1.0, 2.5, 10.0, 50.0}) {
    for (double x : {0.1, 1.0, 5.0, 40.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0, 1e-12);
    }
  }
}

TEST(RegularizedGamma, Boundaries) {
  EXPECT_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_EQ(regularized_gamma_q(2.0, 0.0), 1.0);
  EXPECT_THROW((void)regularized_gamma_p(0.0, 1.0), std::domain_error);
  EXPECT_THROW((void)regularized_gamma_p(1.0, -1.0), std::domain_error);
}

TEST(RegularizedBeta, KnownValues) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(regularized_beta(1.0, 1.0, 0.3), 0.3, 1e-12);
  // I_x(2, 2) = x^2 (3 - 2x).
  EXPECT_NEAR(regularized_beta(2.0, 2.0, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(regularized_beta(2.0, 2.0, 0.25), 0.25 * 0.25 * (3.0 - 0.5), 1e-12);
  // Symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(regularized_beta(3.0, 5.0, 0.4), 1.0 - regularized_beta(5.0, 3.0, 0.6), 1e-12);
}

TEST(RegularizedBeta, Boundaries) {
  EXPECT_EQ(regularized_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(regularized_beta(2.0, 3.0, 1.0), 1.0);
  EXPECT_THROW((void)regularized_beta(-1.0, 1.0, 0.5), std::domain_error);
  EXPECT_THROW((void)regularized_beta(1.0, 1.0, 1.5), std::domain_error);
  EXPECT_THROW((void)inverse_regularized_beta(2.0, 3.0, std::nan("")), std::domain_error);
  EXPECT_THROW((void)inverse_regularized_gamma_p(2.0, std::nan("")), std::domain_error);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-14);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(2.5758293), 0.995, 1e-7);
}

TEST(InverseNormalCdf, KnownValues) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-12);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959963985, 1e-8);
  EXPECT_NEAR(inverse_normal_cdf(0.995), 2.575829304, 1e-8);
  EXPECT_NEAR(inverse_normal_cdf(0.841344746), 1.0, 1e-8);
}

TEST(InverseNormalCdf, Boundaries) {
  EXPECT_TRUE(std::isinf(inverse_normal_cdf(0.0)));
  EXPECT_TRUE(std::isinf(inverse_normal_cdf(1.0)));
  EXPECT_THROW((void)inverse_normal_cdf(-0.1), std::domain_error);
  EXPECT_THROW((void)inverse_normal_cdf(1.1), std::domain_error);
  EXPECT_THROW((void)inverse_normal_cdf(std::nan("")), std::domain_error);
}

class InverseRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(InverseRoundTrip, NormalQuantileCdf) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(inverse_normal_cdf(p)), p, 1e-10);
}

TEST_P(InverseRoundTrip, BetaInverse) {
  const double p = GetParam();
  for (double a : {0.5, 2.0, 7.5}) {
    for (double b : {0.5, 3.0}) {
      const double x = inverse_regularized_beta(a, b, p);
      EXPECT_NEAR(regularized_beta(a, b, x), p, 1e-8) << "a=" << a << " b=" << b;
    }
  }
}

TEST_P(InverseRoundTrip, GammaInverse) {
  const double p = GetParam();
  for (double a : {0.5, 1.0, 4.0, 30.0}) {
    const double x = inverse_regularized_gamma_p(a, p);
    EXPECT_NEAR(regularized_gamma_p(a, x), p, 1e-8) << "a=" << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, InverseRoundTrip,
                         ::testing::Values(0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999));

TEST(NormalPdf, IntegratesToCdfDifference) {
  // Trapezoid check on [-1, 1]: integral phi = Phi(1) - Phi(-1).
  double acc = 0.0;
  const int steps = 20000;
  for (int i = 0; i < steps; ++i) {
    const double x0 = -1.0 + 2.0 * i / steps;
    const double x1 = -1.0 + 2.0 * (i + 1) / steps;
    acc += 0.5 * (normal_pdf(x0) + normal_pdf(x1)) * (x1 - x0);
  }
  EXPECT_NEAR(acc, normal_cdf(1.0) - normal_cdf(-1.0), 1e-8);
}

}  // namespace
}  // namespace sci::stats
