// End-to-end integration tests: full pipelines from simulated cluster
// measurement through statistical analysis to rule-audited reports --
// the workflows the paper's figures embody, exercised across module
// boundaries.
#include <gtest/gtest.h>

#include <vector>

#include "core/adaptive.hpp"
#include "core/bounds.hpp"
#include "core/dataset.hpp"
#include "core/plots.hpp"
#include "core/report.hpp"
#include "hpl/sim_hpl.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"
#include "stats/compare.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/normality.hpp"
#include "stats/quantile_regression.hpp"

namespace sci {
namespace {

// The Figure 3 pipeline: measure two systems, establish that the median
// difference is statistically significant, build a fully rule-compliant
// report.
TEST(Integration, TwoSystemComparisonEndToEnd) {
  const auto dora = simmpi::pingpong_latency(sim::make_dora(), 20000, 64, 1);
  const auto pilatus = simmpi::pingpong_latency(sim::make_pilatus(), 20000, 64, 1);

  // Rule 6: diagnose, do not assume -- latencies are not normal.
  EXPECT_TRUE(stats::shapiro_wilk(std::span(dora).first(3000)).reject(0.05));

  // Rule 7: nonparametric significance.
  const std::vector<std::vector<double>> groups = {
      {dora.begin(), dora.end()}, {pilatus.begin(), pilatus.end()}};
  const auto kw = stats::kruskal_wallis(groups);
  EXPECT_TRUE(kw.reject(0.01));

  // Non-overlapping 99% median CIs confirm the same conclusion.
  const auto ci_dora = stats::median_confidence_interval(dora, 0.99);
  const auto ci_pilatus = stats::median_confidence_interval(pilatus, 0.99);
  EXPECT_FALSE(ci_dora.overlaps(ci_pilatus));

  core::Experiment e;
  e.name = "fig3_significance";
  e.set("machines", "dora-sim, pilatus-sim").set("message", "64 B");
  e.add_factor("system", {"dora", "pilatus"});
  e.synchronization_method = "none (two-sided pingpong)";
  e.summary_across_processes = "rank-0 timing";

  core::ReportBuilder builder(e);
  builder.add_series({"dora", "s", {dora.begin(), dora.end()}});
  builder.add_series({"pilatus", "s", {pilatus.begin(), pilatus.end()}});
  builder.declare_units_convention();
  builder.add_comparison("dora", "pilatus", "Kruskal-Wallis", kw.p_value, 0.0);
  const auto net = sim::make_dora().make_network();
  builder.add_bound("dora", "LogGP ideal one-way latency",
                    net.ideal_transfer_time(0, 60, 64));
  builder.add_plot(core::render_box(
      std::vector<core::NamedSeries>{{"dora", {dora.begin(), dora.end()}},
                                     {"pilatus", {pilatus.begin(), pilatus.end()}}},
      {}));

  for (const auto& check : builder.audit()) {
    EXPECT_TRUE(check.satisfied || !check.applicable)
        << "Rule " << check.rule << " failed: " << check.note;
  }
}

// The Figure 4 pipeline: quantile regression finds the crossover that
// median/mean comparison hides.
TEST(Integration, QuantileRegressionFindsCrossover) {
  const auto dora = simmpi::pingpong_latency(sim::make_dora(), 4000, 64, 2);
  const auto pilatus = simmpi::pingpong_latency(sim::make_pilatus(), 4000, 64, 2);

  std::vector<double> y;
  std::vector<std::vector<double>> x;
  for (std::size_t i = 0; i < dora.size(); ++i) {
    y.push_back(dora[i] * 1e6);
    x.push_back({0.0});
    y.push_back(pilatus[i] * 1e6);
    x.push_back({1.0});
  }
  const auto lo = stats::quantile_regression(y, x, 0.05);
  const auto hi = stats::quantile_regression(y, x, 0.95);
  ASSERT_TRUE(lo.converged);
  ASSERT_TRUE(hi.converged);
  // Crossover: Pilatus faster at low quantiles (negative difference),
  // slower at high quantiles (positive difference).
  EXPECT_LT(lo.coefficients[1], 0.0);
  EXPECT_GT(hi.coefficients[1], 0.0);
}

// The Figure 1 pipeline: HPL runs -> dataset -> summary statistics.
TEST(Integration, HplSeriesToDataset) {
  const auto runs = hpl::simulate_hpl_series(sim::make_daint(), hpl::SimHplConfig{}, 20, 3);

  core::Experiment e;
  e.name = "fig1_hpl";
  e.set("machine", "daint-sim (64 nodes)").set("N", "314000");
  core::Dataset ds(e, {"run", "completion_s", "tflops"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ds.add_row({static_cast<double>(i), runs[i].completion_s, runs[i].gflops / 1000.0});
  }
  EXPECT_EQ(ds.rows(), 20u);

  const auto summary = core::summarize_series(ds.column("completion_s"));
  EXPECT_FALSE(summary.deterministic);
  EXPECT_GT(summary.median, 270.0);
  EXPECT_LT(summary.median, 330.0);
  ASSERT_TRUE(summary.median_ci.has_value());
}

// The Section 4.2.2 pipeline: adaptive sampling drives a simulated
// measurement until the CI is tight.
TEST(Integration, AdaptiveSamplingOnSimulatedLatency) {
  const auto machine = sim::make_dora();
  // Pre-generate a long series and replay it as the "measurement".
  const auto samples = simmpi::pingpong_latency(machine, 4000, 64, 4);
  std::size_t cursor = 0;
  core::AdaptiveOptions opts;
  opts.relative_error = 0.02;
  opts.max_samples = 3900;
  const auto result = core::measure_adaptive(
      [&] { return samples[cursor++]; }, opts);
  EXPECT_TRUE(result.converged);
  // The converged median must be close to the full-series median.
  EXPECT_NEAR(stats::median(result.samples), stats::median(samples),
              0.05 * stats::median(samples));
}

// Rule 10 pipeline: per-rank reduce timings -> ANOVA across ranks
// decides whether a single summary is legitimate (Figure 6).
TEST(Integration, PerProcessVariationAnova) {
  const auto bench = simmpi::reduce_bench(sim::make_daint(), 16, 100, 5);
  std::vector<std::vector<double>> groups;
  for (int r = 0; r < 16; ++r) groups.push_back(bench.rank_series(r));
  // Ranks play different roles in the binomial tree: timings must differ
  // significantly, exactly the Figure 6 observation.
  const auto anova = stats::one_way_anova(groups);
  EXPECT_TRUE(anova.reject(0.01));
}

// Strong-scaling pipeline with bound models (Figure 7).
TEST(Integration, ScalingAgainstBounds) {
  const auto machine = sim::make_daint();
  const double base_s = 20e-3;
  const double serial_fraction = 0.01;
  const core::ScalingBounds bounds(base_s, serial_fraction,
                                   core::daint_reduction_overhead);
  for (int p : {1, 2, 4, 8, 16, 32}) {
    const auto times = simmpi::pi_scaling_run(machine, p, base_s, serial_fraction, 5, 6);
    const double measured = stats::median(times);
    // Measured time must respect the overhead-extended lower bound
    // (sans the overhead term's own noise): use the Amdahl bound.
    EXPECT_GT(measured, 0.95 * bounds.time_amdahl(p)) << p;
    // And speedup must not exceed ideal.
    EXPECT_LT(base_s / measured, p * 1.05) << p;
  }
}

}  // namespace
}  // namespace sci
