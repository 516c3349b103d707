#include "oracle/bootstrap_reference.hpp"

#include <algorithm>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap_detail.hpp"
#include "stats/descriptive.hpp"

namespace sci::oracle {

std::vector<double> bootstrap_distribution(std::span<const double> xs,
                                           const stats::Statistic& statistic,
                                           std::size_t replicates, std::uint64_t seed,
                                           std::size_t lanes) {
  stats::detail::require_valid(xs, replicates);
  rng::Xoshiro256 root(seed);
  const std::size_t n = xs.size();
  const std::size_t base = replicates / lanes;
  const std::size_t rem = replicates % lanes;
  std::vector<double> out;
  out.reserve(replicates);
  std::vector<double> resample(n);
  for (std::size_t l = 0; l < lanes; ++l) {
    rng::Xoshiro256 gen = root.split();  // Xoshiro256(seed) jumped l times
    const std::size_t len = base + (l < rem ? 1 : 0);
    for (std::size_t r = 0; r < len; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        resample[i] = xs[static_cast<std::size_t>(rng::uniform_below(gen, n))];
      }
      out.push_back(statistic(resample));
    }
  }
  return out;
}

stats::Interval bootstrap_percentile_ci(std::span<const double> xs,
                                        const stats::Statistic& statistic,
                                        std::size_t replicates, double confidence,
                                        std::uint64_t seed) {
  auto dist = bootstrap_distribution(xs, statistic, replicates, seed);
  std::sort(dist.begin(), dist.end());
  const double alpha = 1.0 - confidence;
  return {stats::quantile_sorted(dist, alpha / 2.0),
          stats::quantile_sorted(dist, 1.0 - alpha / 2.0), confidence};
}

stats::Interval bootstrap_bca_ci(std::span<const double> xs,
                                 const stats::Statistic& statistic, std::size_t replicates,
                                 double confidence, std::uint64_t seed) {
  auto dist = bootstrap_distribution(xs, statistic, replicates, seed);
  std::sort(dist.begin(), dist.end());
  const std::size_t n = xs.size();
  std::vector<double> jack(n);
  std::vector<double> loo;
  loo.reserve(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    loo.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) loo.push_back(xs[j]);
    }
    jack[i] = statistic(loo);
  }
  return stats::detail::bca_interval(dist, statistic(xs), jack, confidence);
}

}  // namespace sci::oracle
