// Quantile regression (Section 3.2.3): models the effect of factors on
// arbitrary quantiles by minimizing the check loss, a linear program
// (Koenker & Bassett 1978). Solved by a Frisch-Newton interior point
// (Koenker & Portnoy 1997), O(n p^2) per iteration, then finished on an
// exact LP vertex: the coefficients interpolate p observations exactly
// and satisfy Koenker's subgradient optimality condition, so the fit is
// the exact optimum and a deterministic function of its input.
//
// The paper's Figure 4 use case -- latency ~ system indicator -- is a
// one-regressor design; the general interface accepts any design matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/exec_policy.hpp"

namespace sci::stats {

struct QuantRegResult {
  /// True when the optimality condition was certified; otherwise
  /// `coefficients` is empty and `objective` is 0.
  bool converged = false;
  double tau = 0.5;                   ///< fitted quantile
  std::vector<double> coefficients;   ///< [intercept, beta_1, ...]
  double objective = 0.0;             ///< check loss of `coefficients`
};

/// Fits  Q_tau(y | x) = b0 + b1 x1 + ... + bk xk  by minimizing the
/// check loss  sum_i rho_tau(y_i - x_i' b).
/// `design` holds the regressor rows *without* the intercept column
/// (it is added internally); pass an empty design for a pure intercept
/// model, whose solution is the tau-quantile of y. A regressor column
/// in the span of the intercept and the earlier columns gets
/// coefficient 0. Throws std::invalid_argument on an empty, ragged,
/// mismatched or non-finite input and std::domain_error unless
/// 0 < tau < 1.
[[nodiscard]] QuantRegResult quantile_regression(std::span<const double> y,
                                                 std::span<const std::vector<double>> design,
                                                 double tau);

/// Sweep of taus for QR plots (paper Figure 4: quantiles on the x-axis).
[[nodiscard]] std::vector<QuantRegResult> quantile_regression_sweep(
    std::span<const double> y, std::span<const std::vector<double>> design,
    std::span<const double> taus);

/// Bootstrap percentile CI half-widths for each coefficient (xy-pair
/// bootstrap, `replicates` refits on resampled data, deterministic seed).
/// Refits are sharded across `policy.lanes` RNG lanes and
/// min(policy.threads, lanes) pooled workers; results are a pure
/// function of (data, tau, replicates, seed, lanes) -- any thread count
/// produces identical CIs, and the default {1, 1} policy reproduces the
/// historical single-stream refit sequence draw for draw.
struct QuantRegCI {
  std::vector<double> lower;
  std::vector<double> upper;
};
[[nodiscard]] QuantRegCI quantile_regression_bootstrap_ci(
    std::span<const double> y, std::span<const std::vector<double>> design, double tau,
    std::size_t replicates = 200, double confidence = 0.95,
    std::uint64_t seed = 0x5eedc0ffee, const ExecPolicy& policy = {});

}  // namespace sci::stats
