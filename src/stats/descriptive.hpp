// Descriptive statistics: the summary measures of Section 3.1 of the
// paper (means, spread, rank statistics) plus online (streaming)
// accumulators suitable for low-overhead in-measurement collection.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sci::stats {

/// Arithmetic mean. Rule 3: the correct summary for *costs* (seconds,
/// joules, flop counts) where totals are meaningful.
[[nodiscard]] double arithmetic_mean(std::span<const double> xs);

/// Harmonic mean. Rule 3: the correct summary for *rates* (flop/s)
/// when the denominators (times) carry the primary semantic.
[[nodiscard]] double harmonic_mean(std::span<const double> xs);

/// Geometric mean, computed in log space for overflow safety. Rule 4:
/// last-resort summary for dimensionless ratios.
[[nodiscard]] double geometric_mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator), two-pass for stability.
[[nodiscard]] double sample_variance(std::span<const double> xs);

/// Sample standard deviation s.
[[nodiscard]] double sample_stddev(std::span<const double> xs);

/// Coefficient of variation s / mean; the paper's recommended
/// dimensionless stability measure (Kramer & Ryan).
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs);

/// Sample skewness g1 (biased, moment-based).
[[nodiscard]] double skewness(std::span<const double> xs);

/// Excess kurtosis g2 (biased, moment-based).
[[nodiscard]] double excess_kurtosis(std::span<const double> xs);

[[nodiscard]] double min_value(std::span<const double> xs);
[[nodiscard]] double max_value(std::span<const double> xs);

/// Quantile estimation scheme. Numbers follow Hyndman & Fan (1996);
/// R7 is the R default (linear interpolation), R1 is inverse-ECDF
/// (a pure rank statistic: always returns an observed value, matching
/// the paper's definition "the measurement at position n/2").
enum class QuantileMethod {
  kR1InverseEcdf,
  kR6Weibull,
  kR7Linear,
};

/// p-quantile of unsorted data (copies + sorts internally).
[[nodiscard]] double quantile(std::span<const double> xs, double p,
                              QuantileMethod method = QuantileMethod::kR7Linear);

/// p-quantile of data already sorted ascending (no copy). Both quantile
/// functions throw std::domain_error unless 0 <= p <= 1 (NaN included).
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double p,
                                     QuantileMethod method = QuantileMethod::kR7Linear);

[[nodiscard]] double median(std::span<const double> xs);

/// Five-number summary + mean, the contents of a box plot (Rule 12).
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double iqr = 0.0;
  double whisker_low = 0.0;   ///< lowest observation >= q1 - 1.5 IQR
  double whisker_high = 0.0;  ///< highest observation <= q3 + 1.5 IQR
  std::size_t n = 0;
  std::size_t outliers_low = 0;
  std::size_t outliers_high = 0;
};

[[nodiscard]] BoxStats box_stats(std::span<const double> xs);

/// Welford online mean/variance accumulator (Section 3.1.2 notes that
/// the sample variance "can be computed incrementally (online)").
/// Numerically stable, O(1) per observation, mergeable (parallel
/// reduction via Chan et al.).
class OnlineMoments {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  /// Merge another accumulator (order-independent up to roundoff).
  void merge(const OnlineMoments& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;  ///< unbiased; 0 for n<2
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns a sorted copy. Many rank statistics want sorted input; keeping
/// this explicit avoids re-sorting the same series repeatedly.
[[nodiscard]] std::vector<double> sorted_copy(std::span<const double> xs);

/// Midranks (average ranks for ties), 1-based, as used by Kruskal-Wallis.
[[nodiscard]] std::vector<double> midranks(std::span<const double> xs);

/// Same, also accumulating the tie-correction term sum(t^3 - t) over tie
/// groups (ascending value order) into *tie_cubes. Lets Kruskal-Wallis
/// rank and tie-correct with one sort instead of two.
[[nodiscard]] std::vector<double> midranks(std::span<const double> xs, double* tie_cubes);

}  // namespace sci::stats
