#include "stats/special_functions.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace sci::stats {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

// P(a,x) by series expansion, valid for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Q(a,x) by Lentz continued fraction, valid for x >= a + 1.
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

// Continued fraction for the incomplete beta (Numerical Recipes betacf).
double beta_cf(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  if (a <= 0.0 || x < 0.0) throw std::domain_error("regularized_gamma_p: a>0, x>=0 required");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double regularized_gamma_q(double a, double x) {
  if (a <= 0.0 || x < 0.0) throw std::domain_error("regularized_gamma_q: a>0, x>=0 required");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double regularized_beta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) throw std::domain_error("regularized_beta: a,b > 0 required");
  if (x < 0.0 || x > 1.0) throw std::domain_error("regularized_beta: x in [0,1] required");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double normal_pdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

double inverse_normal_cdf(double p) {
  if (!(p > 0.0 && p < 1.0)) {  // negated so NaN lands here and throws
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::domain_error("inverse_normal_cdf: p in (0,1) required");
  }
  // Acklam's approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double bq[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((bq[0] * r + bq[1]) * r + bq[2]) * r + bq[3]) * r + bq[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(0.5 * x * x);
  return x - u / (1.0 + 0.5 * x * u);
}

double inverse_regularized_beta(double a, double b, double p) {
  // NaN passes both clamps below and would bisect to x = 1.
  if (std::isnan(p)) throw std::domain_error("inverse_regularized_beta: p is NaN");
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  // Bisection with Newton acceleration: monotone, always converges.
  double lo = 0.0, hi = 1.0;
  double x = 0.5;
  for (int i = 0; i < 200; ++i) {
    const double f = regularized_beta(a, b, x) - p;
    if (std::fabs(f) < 1e-14) break;
    if (f > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    // Newton step using the beta density; fall back to bisection when it
    // leaves the bracket.
    const double ln_pdf = (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) +
                          std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
    const double pdf = std::exp(ln_pdf);
    double next = (pdf > 0.0) ? x - f / pdf : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - x) < 1e-15) {
      x = next;
      break;
    }
    x = next;
  }
  return x;
}

double inverse_regularized_gamma_p(double a, double p) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  // Bracket then bisect/Newton. Initial guess: Wilson-Hilferty.
  const double g = inverse_normal_cdf(p);
  double x = a * std::pow(1.0 - 1.0 / (9.0 * a) + g / (3.0 * std::sqrt(a)), 3.0);
  if (!(x > 0.0) || !std::isfinite(x)) x = a;
  double lo = 0.0;
  double hi = x;
  while (regularized_gamma_p(a, hi) < p) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e12) break;
  }
  for (int i = 0; i < 200; ++i) {
    x = 0.5 * (lo + hi);
    const double f = regularized_gamma_p(a, x) - p;
    if (std::fabs(f) < 1e-14 || (hi - lo) < 1e-14 * std::max(1.0, x)) break;
    if (f > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
  }
  return x;
}

}  // namespace sci::stats
