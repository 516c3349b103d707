// Branchless order-statistic selection over u32 keys -- the bootstrap
// resample kernel. The bootstrap engine (bootstrap_engine.cpp) reduces
// each quantile replicate to "k-th smallest of n resampled ranks"; on
// random rank data std::nth_element's branchy partition mispredicts
// ~every second element, which dominates the replicate cost. These kernels use
// a cmov-friendly Lomuto partition (unconditional swap + predicated
// store-index advance, no branches on data) with three-way pivot
// handling so duplicate-heavy resamples cannot degrade quadratically.
//
// All selections are exact (same multiset semantics as nth_element), so
// any caller mixing these with the STL algorithms gets bit-identical
// doubles out of sorted[k-th rank].
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "stats/descriptive.hpp"  // QuantileMethod

namespace sci::stats {

/// k-th smallest (0-based) element of a[0..n). Partially reorders `a`.
/// Requires k < n, n >= 1.
[[nodiscard]] std::uint32_t select_kth(std::uint32_t* a, std::size_t n,
                                       std::size_t k) noexcept;

struct SelectedPair {
  std::uint32_t kth = 0;   ///< k-th smallest
  std::uint32_t next = 0;  ///< (k+1)-th smallest
};

/// k-th and (k+1)-th smallest in one selection pass (the interpolation
/// neighbors R6/R7 quantiles need). Requires k + 1 < n.
[[nodiscard]] SelectedPair select_kth_pair(std::uint32_t* a, std::size_t n,
                                           std::size_t k) noexcept;

[[nodiscard]] std::uint32_t min_of(const std::uint32_t* a, std::size_t n) noexcept;
[[nodiscard]] std::uint32_t max_of(const std::uint32_t* a, std::size_t n) noexcept;

/// Which order statistics a (p, method, n) quantile needs, precomputed
/// so a hot loop over same-length resamples decides it once. Both
/// replicate kernels -- partition selection below and histogram
/// selection (histogram_select.hpp) -- consume the same plan and share
/// the interpolation `a + frac * (b - a)` verbatim, which is what makes
/// them bit-identical to each other and to quantile() on a materialized
/// resample.
struct QuantilePlan {
  enum class Mode {
    kMin,     ///< minimum of the resample
    kMax,     ///< maximum
    kSingle,  ///< the k-th order statistic, no interpolation (R1)
    kPair,    ///< interpolate between the k-th and (k+1)-th
  };
  Mode mode = Mode::kSingle;
  std::size_t k = 0;    ///< 0-based rank (kSingle / kPair)
  double frac = 0.0;    ///< interpolation weight (kPair)
};

/// Plan for the p-quantile of an n-element resample. Mirrors
/// quantile_sorted()'s per-method arithmetic term for term.
[[nodiscard]] QuantilePlan make_quantile_plan(std::size_t n, double p,
                                              QuantileMethod method);

/// p-quantile of the resample whose sorted-sample ranks are in `picks`
/// (destroyed by selection). Mirrors quantile_sorted() term for term per
/// method, so results are bit-identical to evaluating the quantile on a
/// materialized resample.
[[nodiscard]] double selection_quantile(std::span<std::uint32_t> picks,
                                        std::span<const double> sorted, double p,
                                        QuantileMethod method);

/// Same, with the plan hoisted out of the replicate loop.
[[nodiscard]] double selection_quantile(std::span<std::uint32_t> picks,
                                        std::span<const double> sorted,
                                        const QuantilePlan& plan) noexcept;

}  // namespace sci::stats
