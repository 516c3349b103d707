// Reference oracle for the bootstrap tests: every replicate evaluates
// the statistic on a materialized resample, and the BCa jackknife on
// materialized leave-one-out vectors. No ranks, no selection kernels,
// no waves, no threads -- the obvious algorithm the engine must
// reproduce bit for bit.
//
// Replicates are split into contiguous per-lane blocks (lane l gets
// R/L replicates, plus one if l < R%L) and lane l draws from
// Xoshiro256(seed) jumped l times, the engine's lane contract. At
// lanes = 1 this is one Xoshiro256(seed) stream, the single-stream
// bootstrap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/bootstrap.hpp"

namespace sci::oracle {

[[nodiscard]] std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                                         const stats::Statistic& statistic,
                                                         std::size_t replicates,
                                                         std::uint64_t seed,
                                                         std::size_t lanes = 1);

/// Percentile CI on the single-stream distribution.
[[nodiscard]] stats::Interval bootstrap_percentile_ci(std::span<const double> xs,
                                                      const stats::Statistic& statistic,
                                                      std::size_t replicates,
                                                      double confidence,
                                                      std::uint64_t seed);

/// BCa CI on the single-stream distribution; the acceleration comes from
/// the statistic evaluated on each materialized leave-one-out vector.
[[nodiscard]] stats::Interval bootstrap_bca_ci(std::span<const double> xs,
                                               const stats::Statistic& statistic,
                                               std::size_t replicates, double confidence,
                                               std::uint64_t seed);

}  // namespace sci::oracle
