// Internal pieces shared by BootstrapEngine (bootstrap_engine.cpp) and
// the materializing reference the tests hold it to: one definition
// each, so the two cannot drift apart arithmetically. Not part of the
// public stats API.
#pragma once

#include <cstddef>
#include <span>

#include "stats/confidence.hpp"  // Interval

namespace sci::stats::detail {

/// BCa interval from a *sorted* bootstrap distribution + jackknife values.
[[nodiscard]] Interval bca_interval(std::span<const double> dist, double theta_hat,
                                    std::span<const double> jack, double confidence);

/// Argument validation shared by all bootstrap entry points.
void require_valid(std::span<const double> xs, std::size_t replicates);

}  // namespace sci::stats::detail
