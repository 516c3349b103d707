#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sci::stats {
namespace {

void require_nonempty(std::span<const double> xs, const char* what) {
  if (xs.empty()) throw std::invalid_argument(std::string(what) + ": empty input");
}

}  // namespace

double arithmetic_mean(std::span<const double> xs) {
  require_nonempty(xs, "arithmetic_mean");
  // Kahan summation: bench series can hold 1e6+ samples spanning decades.
  double sum = 0.0, comp = 0.0;
  for (double x : xs) {
    const double y = x - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum / static_cast<double>(xs.size());
}

double harmonic_mean(std::span<const double> xs) {
  require_nonempty(xs, "harmonic_mean");
  double sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::domain_error("harmonic_mean: requires positive values");
    sum += 1.0 / x;
  }
  return static_cast<double>(xs.size()) / sum;
}

double geometric_mean(std::span<const double> xs) {
  require_nonempty(xs, "geometric_mean");
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::domain_error("geometric_mean: requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double sample_variance(std::span<const double> xs) {
  require_nonempty(xs, "sample_variance");
  if (xs.size() < 2) return 0.0;
  const double mean = arithmetic_mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

double sample_stddev(std::span<const double> xs) { return std::sqrt(sample_variance(xs)); }

double coefficient_of_variation(std::span<const double> xs) {
  const double mean = arithmetic_mean(xs);
  if (mean == 0.0) throw std::domain_error("coefficient_of_variation: zero mean");
  return sample_stddev(xs) / mean;
}

double skewness(std::span<const double> xs) {
  require_nonempty(xs, "skewness");
  const double mean = arithmetic_mean(xs);
  const auto n = static_cast<double>(xs.size());
  double m2 = 0.0, m3 = 0.0;
  for (double x : xs) {
    const double d = x - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= n;
  m3 /= n;
  if (m2 == 0.0) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

double excess_kurtosis(std::span<const double> xs) {
  require_nonempty(xs, "excess_kurtosis");
  const double mean = arithmetic_mean(xs);
  const auto n = static_cast<double>(xs.size());
  double m2 = 0.0, m4 = 0.0;
  for (double x : xs) {
    const double d = x - mean;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= n;
  m4 /= n;
  if (m2 == 0.0) return 0.0;
  return m4 / (m2 * m2) - 3.0;
}

double min_value(std::span<const double> xs) {
  require_nonempty(xs, "min_value");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  require_nonempty(xs, "max_value");
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  std::sort(out.begin(), out.end());
  return out;
}

double quantile_sorted(std::span<const double> sorted, double p, QuantileMethod method) {
  require_nonempty(sorted, "quantile_sorted");
  // Negated so NaN fails the test too.
  if (!(p >= 0.0 && p <= 1.0)) throw std::domain_error("quantile: p in [0,1] required");
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];

  switch (method) {
    case QuantileMethod::kR1InverseEcdf: {
      // Smallest x with ECDF(x) >= p.
      if (p == 0.0) return sorted[0];
      const auto idx = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))) - 1;
      return sorted[std::min(idx, n - 1)];
    }
    case QuantileMethod::kR6Weibull: {
      const double h = (static_cast<double>(n) + 1.0) * p;
      if (h <= 1.0) return sorted[0];
      if (h >= static_cast<double>(n)) return sorted[n - 1];
      const auto k = static_cast<std::size_t>(std::floor(h));
      const double frac = h - static_cast<double>(k);
      return sorted[k - 1] + frac * (sorted[k] - sorted[k - 1]);
    }
    case QuantileMethod::kR7Linear: {
      const double h = (static_cast<double>(n) - 1.0) * p;
      const auto k = static_cast<std::size_t>(std::floor(h));
      const double frac = h - static_cast<double>(k);
      if (k + 1 >= n) return sorted[n - 1];
      return sorted[k] + frac * (sorted[k + 1] - sorted[k]);
    }
  }
  throw std::logic_error("quantile: unknown method");
}

double quantile(std::span<const double> xs, double p, QuantileMethod method) {
  const auto sorted = sorted_copy(xs);
  return quantile_sorted(sorted, p, method);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

BoxStats box_stats(std::span<const double> xs) {
  require_nonempty(xs, "box_stats");
  const auto sorted = sorted_copy(xs);
  BoxStats bs;
  bs.n = sorted.size();
  bs.min = sorted.front();
  bs.max = sorted.back();
  bs.q1 = quantile_sorted(sorted, 0.25);
  bs.median = quantile_sorted(sorted, 0.5);
  bs.q3 = quantile_sorted(sorted, 0.75);
  bs.mean = arithmetic_mean(xs);
  bs.iqr = bs.q3 - bs.q1;
  const double lo_fence = bs.q1 - 1.5 * bs.iqr;
  const double hi_fence = bs.q3 + 1.5 * bs.iqr;
  bs.whisker_low = bs.min;
  bs.whisker_high = bs.max;
  for (double v : sorted) {
    if (v >= lo_fence) {
      bs.whisker_low = v;
      break;
    }
    ++bs.outliers_low;
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= hi_fence) {
      bs.whisker_high = *it;
      break;
    }
    ++bs.outliers_high;
  }
  return bs;
}

void OnlineMoments::merge(const OnlineMoments& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineMoments::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineMoments::stddev() const noexcept { return std::sqrt(variance()); }

std::vector<double> midranks(std::span<const double> xs) {
  return midranks(xs, nullptr);
}

std::vector<double> midranks(std::span<const double> xs, double* tie_cubes) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n);
  if (tie_cubes != nullptr) *tie_cubes = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    const double avg = (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    // Tie groups surface here in ascending value order -- the same
    // accumulation order as a scan over the sorted data, so the summed
    // correction term is bit-identical to the two-sort formulation.
    if (tie_cubes != nullptr) {
      const auto t = static_cast<double>(j - i + 1);
      if (t > 1.0) *tie_cubes += t * t * t - t;
    }
    i = j + 1;
  }
  return ranks;
}

}  // namespace sci::stats
