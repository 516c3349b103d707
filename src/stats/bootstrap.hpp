// Bootstrap resampling (Efron & Tibshirani). The paper lists bootstrap
// as a "more advanced" technique beyond its scope; we include it as the
// natural extension for CIs of statistics with no analytic error theory
// (trimmed means, CoV, quantile-regression coefficients, ...).
//
// A statistic is a ResampleStat: a structural description (mean,
// p-quantile) or custom(fn) for an opaque callable. Naming the shape
// lets the engine (bootstrap_engine.hpp) sort the sample once and
// select order statistics on resampled ranks, O(n) per replicate,
// without materializing a resample; custom statistics are evaluated on
// a materialized resample. Each computation below has one entry point,
// which runs on a BootstrapEngine with the given ExecPolicy. For a
// fixed seed and lane count the result is bit-identical to evaluating
// the statistic on materialized resamples (tests/oracle pins this seed
// for seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "stats/confidence.hpp"  // Interval
#include "stats/descriptive.hpp"  // QuantileMethod
#include "stats/exec_policy.hpp"

namespace sci::stats {

/// A statistic computed on a resampled series.
using Statistic = std::function<double(std::span<const double>)>;

/// Structural description of a bootstrap statistic. Naming the shape
/// (mean, p-quantile) instead of hiding it behind a callable is what
/// unlocks the selection fast path; custom() keeps full generality at
/// materialized-resample speed.
class ResampleStat {
 public:
  enum class Kind { kMean, kQuantile, kCustom };

  [[nodiscard]] static ResampleStat mean() {
    ResampleStat s;
    s.kind_ = Kind::kMean;
    return s;
  }
  [[nodiscard]] static ResampleStat median() { return quantile(0.5); }
  /// Throws std::domain_error unless 0 <= p <= 1 (NaN included).
  [[nodiscard]] static ResampleStat quantile(double p,
                                             QuantileMethod method = QuantileMethod::kR7Linear);
  [[nodiscard]] static ResampleStat custom(Statistic fn) {
    ResampleStat s;
    s.kind_ = Kind::kCustom;
    s.fn_ = std::move(fn);
    return s;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] double prob() const noexcept { return p_; }
  [[nodiscard]] QuantileMethod method() const noexcept { return method_; }

  /// Full-sample evaluation; identical to calling the equivalent
  /// Statistic on `xs`.
  [[nodiscard]] double evaluate(std::span<const double> xs) const;

 private:
  ResampleStat() = default;
  Kind kind_ = Kind::kCustom;
  double p_ = 0.5;
  QuantileMethod method_ = QuantileMethod::kR7Linear;
  Statistic fn_;
};

/// Bootstrap distribution of `statistic` over `replicates` resamples
/// with replacement. Deterministic for a fixed (seed, policy.lanes);
/// policy.threads never changes the result.
[[nodiscard]] std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                                         const ResampleStat& statistic,
                                                         std::size_t replicates,
                                                         std::uint64_t seed = 0xb00f,
                                                         const ExecPolicy& policy = {});

/// Percentile-method CI: quantiles of the bootstrap distribution.
[[nodiscard]] Interval bootstrap_percentile_ci(std::span<const double> xs,
                                               const ResampleStat& statistic,
                                               std::size_t replicates = 1000,
                                               double confidence = 0.95,
                                               std::uint64_t seed = 0xb00f,
                                               const ExecPolicy& policy = {});

/// BCa (bias-corrected and accelerated) CI; second-order accurate.
/// Acceleration from jackknife influence values: O(n) for quantiles
/// (each leave-one-out order statistic is an index shift in the sorted
/// sample), O(n^2) adds for the mean, n evaluations on materialized
/// leave-one-out vectors for custom statistics.
[[nodiscard]] Interval bootstrap_bca_ci(std::span<const double> xs,
                                        const ResampleStat& statistic,
                                        std::size_t replicates = 1000,
                                        double confidence = 0.95,
                                        std::uint64_t seed = 0xb00f,
                                        const ExecPolicy& policy = {});

}  // namespace sci::stats
