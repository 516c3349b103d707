#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/bootstrap_detail.hpp"
#include "stats/descriptive.hpp"
#include "stats/special_functions.hpp"

namespace sci::stats {

namespace detail {

void require_valid(std::span<const double> xs, std::size_t replicates) {
  if (xs.size() < 2) throw std::invalid_argument("bootstrap: need n >= 2");
  if (replicates == 0) throw std::invalid_argument("bootstrap: replicates >= 1");
}

Interval bca_interval(std::span<const double> dist, double theta_hat,
                      std::span<const double> jack, double confidence) {
  // Bias correction z0: fraction of bootstrap stats below the point estimate.
  std::size_t below = 0;
  for (double v : dist) {
    if (v < theta_hat) ++below;
  }
  double frac = static_cast<double>(below) / static_cast<double>(dist.size());
  frac = std::clamp(frac, 1e-10, 1.0 - 1e-10);
  const double z0 = inverse_normal_cdf(frac);

  // Acceleration from jackknife influence values.
  const double jack_mean = arithmetic_mean(jack);
  double num = 0.0, den = 0.0;
  for (double v : jack) {
    const double d = jack_mean - v;
    num += d * d * d;
    den += d * d;
  }
  const double a = (den > 0.0) ? num / (6.0 * std::pow(den, 1.5)) : 0.0;

  const double alpha = 1.0 - confidence;
  auto adjusted = [&](double level) {
    const double z = inverse_normal_cdf(level);
    const double adj = normal_cdf(z0 + (z0 + z) / (1.0 - a * (z0 + z)));
    return std::clamp(adj, 0.0, 1.0);
  };
  return {quantile_sorted(dist, adjusted(alpha / 2.0)),
          quantile_sorted(dist, adjusted(1.0 - alpha / 2.0)), confidence};
}

}  // namespace detail

ResampleStat ResampleStat::quantile(double p, QuantileMethod method) {
  // Negated so NaN fails the test too.
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::domain_error("ResampleStat::quantile: p in [0,1]");
  }
  ResampleStat s;
  s.kind_ = Kind::kQuantile;
  s.p_ = p;
  s.method_ = method;
  return s;
}

double ResampleStat::evaluate(std::span<const double> xs) const {
  switch (kind_) {
    case Kind::kMean:
      return arithmetic_mean(xs);
    case Kind::kQuantile:
      return ::sci::stats::quantile(xs, p_, method_);
    case Kind::kCustom:
      return fn_(xs);
  }
  throw std::logic_error("ResampleStat: unknown kind");
}

}  // namespace sci::stats
