#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/distributions.hpp"

namespace sci::stats {
namespace {

TEST(StudentTDist, TableCriticalValues) {
  // Classic two-sided critical values t(dof, 0.05/2).
  EXPECT_NEAR(StudentT{1.0}.critical_two_sided(0.05), 12.706, 0.01);
  EXPECT_NEAR(StudentT{5.0}.critical_two_sided(0.05), 2.571, 0.005);
  EXPECT_NEAR(StudentT{10.0}.critical_two_sided(0.05), 2.228, 0.005);
  EXPECT_NEAR(StudentT{30.0}.critical_two_sided(0.05), 2.042, 0.005);
  EXPECT_NEAR(StudentT{10.0}.critical_two_sided(0.01), 3.169, 0.005);
  // Converges to the normal critical value for large dof.
  EXPECT_NEAR(StudentT{100000.0}.critical_two_sided(0.05), 1.960, 0.002);
}

TEST(StudentTDist, QuantileRejectsProbabilitiesOutsideUnitInterval) {
  const StudentT t{5.0};
  EXPECT_TRUE(std::isinf(t.quantile(0.0)));
  EXPECT_TRUE(std::isinf(t.quantile(1.0)));
  EXPECT_THROW((void)t.quantile(-0.1), std::domain_error);
  EXPECT_THROW((void)t.quantile(1.1), std::domain_error);
  // NaN must not slip past the range check into a near-zero quantile.
  EXPECT_THROW((void)t.quantile(std::nan("")), std::domain_error);
  EXPECT_THROW((void)t.critical_two_sided(std::nan("")), std::domain_error);
}

TEST(StudentTDist, CdfSymmetry) {
  const StudentT t{7.0};
  for (double x : {0.5, 1.0, 2.7}) {
    EXPECT_NEAR(t.cdf(x) + t.cdf(-x), 1.0, 1e-12);
  }
  EXPECT_NEAR(t.cdf(0.0), 0.5, 1e-12);
}

TEST(StudentTDist, PdfIntegratesToCdf) {
  const StudentT t{4.0};
  double acc = 0.0;
  const int steps = 20000;
  for (int i = 0; i < steps; ++i) {
    const double x0 = -3.0 + 6.0 * i / steps;
    const double x1 = -3.0 + 6.0 * (i + 1) / steps;
    acc += 0.5 * (t.pdf(x0) + t.pdf(x1)) * (x1 - x0);
  }
  EXPECT_NEAR(acc, t.cdf(3.0) - t.cdf(-3.0), 1e-6);
}

TEST(ChiSquaredDist, TableValues) {
  // chi2 upper 5% critical values.
  EXPECT_NEAR(ChiSquared{1.0}.quantile(0.95), 3.841, 0.005);
  EXPECT_NEAR(ChiSquared{2.0}.quantile(0.95), 5.991, 0.005);
  EXPECT_NEAR(ChiSquared{10.0}.quantile(0.95), 18.307, 0.01);
  EXPECT_NEAR(ChiSquared{2.0}.quantile(0.99), 9.210, 0.01);
}

TEST(ChiSquaredDist, CdfOfMeanIsReasonable) {
  // Mean of chi2(k) is k; CDF at the mean is between 0.5 and 0.7.
  for (double k : {1.0, 4.0, 20.0}) {
    const double c = ChiSquared{k}.cdf(k);
    EXPECT_GT(c, 0.5);
    EXPECT_LT(c, 0.7);
  }
}

TEST(FisherFDist, TableValues) {
  // F upper 5% critical values F(d1, d2, 0.95).
  EXPECT_NEAR((FisherF{1.0, 10.0}.quantile(0.95)), 4.965, 0.01);
  EXPECT_NEAR((FisherF{3.0, 20.0}.quantile(0.95)), 3.098, 0.01);
  EXPECT_NEAR((FisherF{5.0, 5.0}.quantile(0.95)), 5.050, 0.01);
}

TEST(FisherFDist, QuantileRejectsNaN) {
  EXPECT_THROW((void)(FisherF{3.0, 20.0}.quantile(std::nan(""))), std::domain_error);
  EXPECT_THROW((void)ChiSquared{2.0}.quantile(std::nan("")), std::domain_error);
}

TEST(FisherFDist, CdfQuantileRoundTrip) {
  const FisherF f{4.0, 17.0};
  for (double p : {0.05, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(f.cdf(f.quantile(p)), p, 1e-8);
  }
}

TEST(FisherFDist, RelationToStudentT) {
  // t(v)^2 ~ F(1, v): quantile consistency.
  const double v = 9.0;
  const double t975 = StudentT{v}.quantile(0.975);
  const double f95 = FisherF{1.0, v}.quantile(0.95);
  EXPECT_NEAR(t975 * t975, f95, 1e-6);
}

class NormalParams : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(NormalParams, QuantileCdfRoundTrip) {
  const auto [mean, sd] = GetParam();
  const Normal n{mean, sd};
  for (double p : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(n.cdf(n.quantile(p)), p, 1e-10);
  }
  EXPECT_NEAR(n.quantile(0.5), mean, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NormalParams,
                         ::testing::Values(std::make_pair(0.0, 1.0),
                                           std::make_pair(5.0, 0.1),
                                           std::make_pair(-3.0, 10.0)));

}  // namespace
}  // namespace sci::stats
