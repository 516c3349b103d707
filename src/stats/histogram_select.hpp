// Histogram (counting-sort) rank selection for small-n bootstrap
// resamples -- the data-parallel alternative to the partition kernels
// in selection.hpp.
//
// A quantile replicate is "k-th smallest of m ranks drawn from [0, n)".
// The partition path (select_kth / select_kth_pair) is O(m) per
// replicate but every pass chases data-dependent swaps. When n is
// small, counting wins: bump counts[rank] for each draw (O(m) stores,
// no comparisons), then walk the prefix sum to the k-th entry (O(n),
// vectorized 8 bins/step under AVX2). The fill also leaves the input
// row intact, so the engine skips the copy-into-scratch the destructive
// partition kernels force on it.
//
// Both kernels consume the same QuantilePlan and share the
// `a + frac * (b - a)` interpolation verbatim, so the size rule below
// never changes a byte -- pinned by differential tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "stats/selection.hpp"  // QuantilePlan
#include "stats/simd_dispatch.hpp"

namespace sci::stats {

/// Size rule: the engine selects quantile replicates by histogram for
/// n <= kHistogramSelectMaxN and by partition above it. This is the
/// largest n at which histogram selection won every run of the sweep
/// (bench_stats_parallel --crossover; table in
/// bench/RESULTS_stats_parallel.md); there its 4-byte bins fill 2 MiB,
/// the per-core L2 of the measured host. At 2^20 the kernels tie and
/// from 2^21 partition wins. Speed only, never bytes.
inline constexpr std::size_t kHistogramSelectMaxN = std::size_t{1} << 19;

/// p-quantile (per `plan`) of the resample whose sorted-sample ranks
/// are in `row`. `counts` is caller-owned scratch with
/// counts.size() == sorted.size(); all ranks must be < sorted.size().
/// Unlike selection_quantile, `row` is left intact.
[[nodiscard]] double histogram_select_quantile(std::span<const std::uint32_t> row,
                                               std::span<const double> sorted,
                                               std::span<std::uint32_t> counts,
                                               const QuantilePlan& plan,
                                               const simd::Kernels& kernels) noexcept;

}  // namespace sci::stats
