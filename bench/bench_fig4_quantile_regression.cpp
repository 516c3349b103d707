// Reproduces Figure 4: quantile regression of 64 B latency comparing
// Pilatus against Piz Dora (the intercept/base system). For quantiles
// 0.1..0.9 it prints the Dora intercept and the Pilatus difference with
// bootstrap CIs, exposing the crossover the mean comparison hides: low
// percentiles are slower on Dora, high percentiles faster.
#include <cstdio>
#include <vector>

#include "core/plots.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_regression.hpp"

using namespace sci;

int main() {
  std::printf("=== Figure 4: quantile regression, Pilatus vs Piz Dora (base) ===\n");
  constexpr std::size_t kSamples = 100'000;
  const auto dora = simmpi::pingpong_latency(sim::make_dora(), kSamples, 64, 4);
  const auto pilatus = simmpi::pingpong_latency(sim::make_pilatus(), kSamples, 64, 4);

  // The QR design: latency ~ indicator(Pilatus) over every sample of
  // both systems. `stride` thins it to every stride-th sample per system.
  const auto make_design = [&](std::size_t stride, std::vector<double>& y,
                               std::vector<std::vector<double>>& x) {
    for (std::size_t i = 0; i < kSamples; i += stride) {
      y.push_back(dora[i] * 1e6);
      x.push_back({0.0});
      y.push_back(pilatus[i] * 1e6);
      x.push_back({1.0});
    }
  };
  std::vector<double> y;
  std::vector<std::vector<double>> x;
  make_design(1, y, x);

  const std::vector<double> taus = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  const auto fits = stats::quantile_regression_sweep(y, x, taus);

  std::printf("\nquantile regression on all n = %zu points\n", y.size());
  std::printf("%5s %18s %24s\n", "tau", "Dora (intercept)", "Pilatus - Dora [us]");
  std::vector<double> tau_axis, diff_axis, intercept_axis;
  for (const auto& fit : fits) {
    if (!fit.converged) {
      std::printf("%5.1f  (fit did not converge)\n", fit.tau);
      continue;
    }
    std::printf("%5.1f %15.3f us %21.3f\n", fit.tau, fit.coefficients[0],
                fit.coefficients[1]);
    tau_axis.push_back(fit.tau);
    intercept_axis.push_back(fit.coefficients[0]);
    diff_axis.push_back(fit.coefficients[1]);
  }

  // Mean difference line (the single number the QR plot is compared to).
  double mean_dora = 0.0, mean_pilatus = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    mean_dora += dora[i];
    mean_pilatus += pilatus[i];
  }
  const double mean_diff = (mean_pilatus - mean_dora) / kSamples * 1e6;
  std::printf("\ndifference of the means: %.3f us (paper: 0.108 us)\n", mean_diff);

  // Bootstrap CI at the extremes for the difference coefficient, on the
  // historical 500-point thinned design: 30 refits at the full n would
  // take tens of seconds. ExecPolicy{} ({1, 1}) keeps the single-stream
  // draws; multi-core runs raise threads/lanes in one place.
  std::vector<double> y_thin;
  std::vector<std::vector<double>> x_thin;
  make_design(kSamples / 250, y_thin, x_thin);
  for (double tau : {0.1, 0.9}) {
    const auto ci = stats::quantile_regression_bootstrap_ci(y_thin, x_thin, tau, 30, 0.95, 7,
                                                            stats::ExecPolicy{});
    std::printf("tau=%.1f: difference 95%% bootstrap CI [%.3f, %.3f] us (n = %zu)\n", tau,
                ci.lower[1], ci.upper[1], y_thin.size());
  }

  std::printf("\npaper's observation: low percentiles significantly slower on Piz Dora\n");
  std::printf("(difference < 0) while high percentiles are faster (difference > 0);\n");
  std::printf("for bad-case latency-critical use Pilatus would win despite the means.\n\n");

  core::XYSeries diff{"Pilatus - Dora", 'o', tau_axis, diff_axis};
  core::XYSeries zero{"zero line", '-', {0.1, 0.5, 0.9}, {0.0, 0.0, 0.0}};
  core::PlotOptions opts;
  opts.title = "QR difference by quantile (us)";
  opts.x_label = "quantile";
  opts.height = 10;
  std::fputs(
      core::render_xy(std::vector<core::XYSeries>{diff, zero}, opts).c_str(),
      stdout);
  return 0;
}
