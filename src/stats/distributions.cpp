#include "stats/distributions.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/special_functions.hpp"

namespace sci::stats {

double Normal::pdf(double x) const { return normal_pdf((x - mean) / stddev) / stddev; }

double Normal::cdf(double x) const { return normal_cdf((x - mean) / stddev); }

double Normal::quantile(double p) const { return mean + stddev * inverse_normal_cdf(p); }

double StudentT::pdf(double x) const {
  const double v = dof;
  const double ln = std::lgamma((v + 1.0) / 2.0) - std::lgamma(v / 2.0) -
                    0.5 * std::log(v * M_PI) -
                    (v + 1.0) / 2.0 * std::log1p(x * x / v);
  return std::exp(ln);
}

double StudentT::cdf(double x) const {
  if (dof <= 0.0) throw std::domain_error("StudentT: dof > 0 required");
  const double t2 = x * x;
  const double ib = regularized_beta(dof / 2.0, 0.5, dof / (dof + t2));
  return (x > 0.0) ? 1.0 - 0.5 * ib : 0.5 * ib;
}

double StudentT::quantile(double p) const {
  if (!(p > 0.0 && p < 1.0)) {  // negated so NaN lands here and throws
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::domain_error("StudentT::quantile: p in (0,1)");
  }
  if (p == 0.5) return 0.0;
  const double pp = (p < 0.5) ? 2.0 * p : 2.0 * (1.0 - p);
  // Invert via I_x(dof/2, 1/2) with x = dof/(dof+t^2) -> t.
  const double x = inverse_regularized_beta(dof / 2.0, 0.5, pp);
  const double t = std::sqrt(dof * (1.0 - x) / x);
  return (p < 0.5) ? -t : t;
}

double StudentT::critical_two_sided(double alpha) const { return quantile(1.0 - alpha / 2.0); }

double ChiSquared::pdf(double x) const {
  if (x < 0.0) return 0.0;
  const double k = dof / 2.0;
  const double ln = (k - 1.0) * std::log(x) - x / 2.0 - k * std::log(2.0) - std::lgamma(k);
  return std::exp(ln);
}

double ChiSquared::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return regularized_gamma_p(dof / 2.0, x / 2.0);
}

double ChiSquared::quantile(double p) const {
  return 2.0 * inverse_regularized_gamma_p(dof / 2.0, p);
}

double FisherF::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return regularized_beta(dof1 / 2.0, dof2 / 2.0, dof1 * x / (dof1 * x + dof2));
}

double FisherF::quantile(double p) const {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  const double x = inverse_regularized_beta(dof1 / 2.0, dof2 / 2.0, p);
  return dof2 * x / (dof1 * (1.0 - x));
}

}  // namespace sci::stats
