// sci::ci -- performance history store, regression detection, and the
// BENCH json round trip the store depends on.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ci/dashboard.hpp"
#include "ci/detect.hpp"
#include "ci/history.hpp"
#include "obs/bench_report.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace sci::ci {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

obs::BenchReport make_report(const std::string& sha, double median,
                             const std::string& bench = "demo",
                             obs::Improve improve = obs::Improve::kLower) {
  obs::BenchReport report;
  report.bench = bench;
  report.git_sha = sha;
  report.context["build_type"] = "release";
  obs::BenchMetric metric;
  metric.name = "lat";
  metric.unit = "us";
  metric.improve = improve;
  metric.n = 50;
  metric.median = median;
  metric.ci_lo = median * 0.99;
  metric.ci_hi = median * 1.01;
  report.metrics.push_back(metric);
  return report;
}

/// Ingests `medians` as one report per point (distinct shas).
HistoryStore store_with(const std::string& path, const std::vector<double>& medians,
                        obs::Improve improve = obs::Improve::kLower) {
  HistoryStore store(path);
  for (std::size_t i = 0; i < medians.size(); ++i) {
    store.ingest(make_report("sha" + std::to_string(i), medians[i], "demo", improve));
  }
  return store;
}

// ------------------------------------------------ BENCH json round trip

TEST(BenchJson, EmitParseReEmitIsByteIdentical) {
  obs::BenchReport report = make_report("abc123", 42.5);
  report.context["mode"] = "full";
  obs::BenchMetric rate;
  rate.name = "throughput";
  rate.unit = "rep/s";
  rate.improve = obs::Improve::kHigher;
  rate.n = 3;
  rate.median = 1234.5;
  rate.ci_lo = 1200.25;
  rate.ci_hi = 1300.75;
  report.metrics.push_back(rate);
  report.counters.emplace_back("allocs", 0);
  report.counters.emplace_back("spills", 17);

  const std::string first = obs::bench_report_json(report);
  const obs::BenchReport parsed = obs::parse_bench_report(first);
  const std::string second = obs::bench_report_json(parsed);
  EXPECT_EQ(first, second);

  EXPECT_EQ(parsed.bench, "demo");
  EXPECT_EQ(parsed.git_sha, "abc123");
  EXPECT_EQ(parsed.context.at("mode"), "full");
  ASSERT_EQ(parsed.metrics.size(), 2u);
  EXPECT_EQ(parsed.metrics[1].improve, obs::Improve::kHigher);
  EXPECT_EQ(parsed.metrics[1].median, 1234.5);
  ASSERT_EQ(parsed.counters.size(), 2u);
}

TEST(BenchJson, NonFiniteBoundsSurviveAsNaN) {
  obs::BenchReport report = make_report("abc", 1.0);
  report.metrics[0].ci_lo = std::numeric_limits<double>::quiet_NaN();
  report.metrics[0].ci_hi = std::numeric_limits<double>::infinity();

  const std::string first = obs::bench_report_json(report);
  EXPECT_NE(first.find("null"), std::string::npos);
  const obs::BenchReport parsed = obs::parse_bench_report(first);
  EXPECT_TRUE(std::isnan(parsed.metrics[0].ci_lo));
  EXPECT_TRUE(std::isnan(parsed.metrics[0].ci_hi));
  EXPECT_EQ(first, obs::bench_report_json(parsed));
}

TEST(BenchJson, ReporterSummarizesLikeTheBenchProse) {
  obs::BenchReporter reporter("summary");
  const std::vector<double> samples = {5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0};
  const obs::BenchMetric& m =
      reporter.add_metric("t", "s", samples, obs::Improve::kLower);
  EXPECT_EQ(m.n, samples.size());
  EXPECT_EQ(m.median, 4.0);
  EXPECT_LE(m.ci_lo, m.median);
  EXPECT_GE(m.ci_hi, m.median);
  // n <= 5 falls back to the observed range.
  const std::vector<double> tiny = {2.0, 1.0, 3.0};
  const obs::BenchMetric& t = reporter.add_metric("tiny", "s", tiny);
  EXPECT_EQ(t.ci_lo, 1.0);
  EXPECT_EQ(t.ci_hi, 3.0);
}

// ------------------------------------------------------- history store

TEST(History, LineRoundTrips) {
  HistoryPoint point;
  point.seq = 7;
  point.git_sha = "cafe";
  point.bench = "b with space";
  point.metric.name = "m\"quoted\"";
  point.metric.unit = "us";
  point.metric.improve = obs::Improve::kHigher;
  point.metric.n = 50;
  point.metric.median = 1.25;
  point.metric.ci_lo = 1.0;
  point.metric.ci_hi = 1.5;
  const HistoryPoint back = parse_history_line(history_line(point));
  EXPECT_EQ(back.git_sha, "cafe");
  EXPECT_EQ(back.bench, "b with space");
  EXPECT_EQ(back.metric.name, "m\"quoted\"");
  EXPECT_EQ(back.metric.improve, obs::Improve::kHigher);
  EXPECT_EQ(history_line(point), history_line(back));
}

TEST(History, IngestAppendsAndReloadsIdentically) {
  const std::string path = temp_path("hist_basic.jsonl");
  {
    HistoryStore store(path);
    EXPECT_EQ(store.ingest(make_report("s1", 1.0)), 1u);
    EXPECT_EQ(store.ingest(make_report("s2", 1.1)), 1u);
    EXPECT_EQ(store.points().size(), 2u);
  }
  HistoryStore reloaded(path);
  ASSERT_EQ(reloaded.points().size(), 2u);
  EXPECT_EQ(reloaded.points()[0].git_sha, "s1");
  EXPECT_EQ(reloaded.points()[1].git_sha, "s2");
  EXPECT_EQ(reloaded.points()[1].seq, 1u);
  EXPECT_EQ(reloaded.skipped_lines(), 0u);
}

TEST(History, ReingestingSameShaIsIdempotent) {
  const std::string path = temp_path("hist_idem.jsonl");
  HistoryStore store(path);
  EXPECT_EQ(store.ingest(make_report("s1", 1.0)), 1u);
  // A retried CI job ingests the identical report again: no-op.
  EXPECT_EQ(store.ingest(make_report("s1", 1.0)), 0u);
  EXPECT_EQ(store.points().size(), 1u);
  HistoryStore reloaded(path);
  EXPECT_EQ(reloaded.points().size(), 1u);
}

TEST(History, TornTailIsSkippedAndHealed) {
  const std::string path = temp_path("hist_torn.jsonl");
  {
    HistoryStore store(path);
    store.ingest(make_report("s1", 1.0));
    store.ingest(make_report("s2", 1.1));
  }
  // Crash mid-append: the file ends with half a record, no newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"seq\": 2, \"sha\": \"s3\", \"ben";
  }
  HistoryStore store(path);
  EXPECT_EQ(store.points().size(), 2u);
  EXPECT_EQ(store.skipped_lines(), 1u);
  // The next append heals the missing newline; the new record must not
  // glue onto the scar.
  store.ingest(make_report("s4", 1.2));
  HistoryStore reloaded(path);
  ASSERT_EQ(reloaded.points().size(), 3u);
  EXPECT_EQ(reloaded.points()[2].git_sha, "s4");
  EXPECT_EQ(reloaded.skipped_lines(), 1u);
}

TEST(History, SeriesGroupsByBenchAndMetricInFirstAppearanceOrder) {
  const std::string path = temp_path("hist_series.jsonl");
  HistoryStore store(path);
  store.ingest(make_report("s1", 1.0, "alpha"));
  store.ingest(make_report("s1", 2.0, "beta"));
  store.ingest(make_report("s2", 1.1, "alpha"));
  const auto series = store.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].bench, "alpha");
  EXPECT_EQ(series[0].points.size(), 2u);
  EXPECT_EQ(series[1].bench, "beta");
  const auto medians = series[0].medians();
  ASSERT_EQ(medians.size(), 2u);
  EXPECT_EQ(medians[1], 1.1);
}

// --------------------------------------------------------- detection

TEST(Detect, InjectedStepChangeIsFlagged) {
  const std::string path = temp_path("hist_step.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 30; ++i) {
    medians.push_back((i < 15 ? 1.0 : 1.5) + 0.002 * (i % 3));
  }
  const HistoryStore store = store_with(path, medians);
  const auto findings = analyze_all(store.series());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].verdict, Verdict::kRegression);
  EXPECT_TRUE(findings[0].changepoint);
  EXPECT_EQ(findings[0].changepoint_index, 15u);
  EXPECT_GT(findings[0].changepoint_shift, 0.4);
  EXPECT_LT(findings[0].changepoint_p, 0.05);
  EXPECT_TRUE(any_regression(findings));
}

TEST(Detect, FreshRegressionCaughtByCiOverlapGate) {
  const std::string path = temp_path("hist_gate.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 10; ++i) medians.push_back(1.0 + 0.001 * (i % 3));
  medians.push_back(1.5);  // the PR under test
  const HistoryStore store = store_with(path, medians);
  const auto findings = analyze_all(store.series());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].verdict, Verdict::kRegression);
  EXPECT_TRUE(findings[0].ci_disjoint);
  EXPECT_GT(findings[0].change_fraction, 0.4);
}

TEST(Detect, ImproveDirectionFlipsTheVerdict) {
  // Throughput metric (higher is better): a drop is the regression, a
  // rise is the improvement.
  const std::string drop_path = temp_path("hist_drop.jsonl");
  std::vector<double> drop;
  for (int i = 0; i < 10; ++i) drop.push_back(1000.0 + (i % 3));
  drop.push_back(600.0);
  const auto drop_findings =
      analyze_all(store_with(drop_path, drop, obs::Improve::kHigher).series());
  EXPECT_EQ(drop_findings[0].verdict, Verdict::kRegression);

  const std::string rise_path = temp_path("hist_rise.jsonl");
  std::vector<double> rise;
  for (int i = 0; i < 10; ++i) rise.push_back(1000.0 + (i % 3));
  rise.push_back(1600.0);
  const auto rise_findings =
      analyze_all(store_with(rise_path, rise, obs::Improve::kHigher).series());
  EXPECT_EQ(rise_findings[0].verdict, Verdict::kImprovement);
  EXPECT_FALSE(any_regression(rise_findings));
}

TEST(Detect, FlatNoisyHistoryStaysQuiet) {
  // The false-positive rate the bench-regression-gate lives on: 20
  // deterministic noisy-but-flat histories, zero regressions allowed.
  rng::Xoshiro256 gen(0xfacade);
  int regressions = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const std::string path = temp_path("hist_flat_" + std::to_string(trial) + ".jsonl");
    std::vector<double> medians;
    for (int i = 0; i < 25; ++i) {
      medians.push_back(1.0 + 0.01 * rng::normal(gen, 0.0, 1.0));
    }
    const HistoryStore store = store_with(path, medians);
    const auto findings = analyze_all(store.series());
    if (any_regression(findings)) ++regressions;
  }
  EXPECT_EQ(regressions, 0);
}

// The trend detector at the call the gate makes: a tau = 0.5 fit with 200
// bootstrap refits over a 100-point history.
TEST(Detect, SlowDriftSetsTrendWithoutRegression) {
  rng::Xoshiro256 gen(0xd41f7);
  std::vector<double> medians;
  for (int i = 0; i < 100; ++i) {
    medians.push_back(3.0 * (1.0 + 0.06 * i / 99.0) * (1.0 + 0.01 * rng::uniform(gen, -1.0, 1.0)));
  }
  const HistoryStore store = store_with(temp_path("hist_drift.jsonl"), medians);
  const Finding finding = analyze_series(store.series().at(0));
  EXPECT_TRUE(finding.trend);
  EXPECT_GT(finding.trend_slope, 0.0);
  EXPECT_NE(finding.verdict, Verdict::kRegression);
  EXPECT_NE(finding.note.find("sustained trend"), std::string::npos) << finding.note;
}

TEST(Detect, FlatSeriesSetsNeitherTrendNorRegression) {
  rng::Xoshiro256 gen(0xf1a7);
  std::vector<double> medians;
  for (int i = 0; i < 100; ++i) medians.push_back(3.0 * (1.0 + 0.01 * rng::uniform(gen, -1.0, 1.0)));
  const HistoryStore store = store_with(temp_path("hist_flat_trend.jsonl"), medians);
  const Finding finding = analyze_series(store.series().at(0));
  EXPECT_FALSE(finding.trend);
  EXPECT_NE(finding.verdict, Verdict::kRegression);
  EXPECT_EQ(finding.note.find("trend"), std::string::npos) << finding.note;
}

// A `null` median in the history parses to NaN. The trend fit rejects
// non-finite input, so the detector skips it and says so.
TEST(Detect, NonFiniteMedianSkipsTheTrendFit) {
  std::vector<double> medians;
  for (int i = 0; i < 20; ++i) medians.push_back(1.0 + 0.001 * (i % 3));
  medians[7] = std::numeric_limits<double>::quiet_NaN();
  const HistoryStore store = store_with(temp_path("hist_nan.jsonl"), medians);
  Finding finding;
  ASSERT_NO_THROW(finding = analyze_series(store.series().at(0)));
  EXPECT_FALSE(finding.trend);
  EXPECT_NE(finding.note.find("no trend fit (non-finite median)"), std::string::npos)
      << finding.note;
}

TEST(Detect, ShortHistoryIsInsufficientNotStable) {
  const std::string path = temp_path("hist_short.jsonl");
  const HistoryStore store = store_with(path, {1.0, 1.1});
  const auto findings = analyze_all(store.series());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].verdict, Verdict::kInsufficientHistory);
  EXPECT_FALSE(any_regression(findings));
}

TEST(Detect, SmallChangesBelowMinEffectStayStable) {
  const std::string path = temp_path("hist_smalleffect.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 10; ++i) medians.push_back(1.0);
  medians.push_back(1.02);  // 2% < default min_effect 5%
  const HistoryStore store = store_with(path, medians);
  const auto findings = analyze_all(store.series());
  EXPECT_EQ(findings[0].verdict, Verdict::kStable);
}

TEST(Detect, DegenerateBaselineCiIsFlaggedAsBlindSpot) {
  // Default 8-point window: the median rank CI over 8 points always
  // clamps to ranks [1, 8] -- the observed range -- so the overlap gate
  // has almost no power there. The finding must say so.
  const std::string path = temp_path("hist_degenerate.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 10; ++i) medians.push_back(1.0 + 0.001 * (i % 3));
  const auto findings = analyze_all(store_with(path, medians).series());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].baseline_ci_degenerate);
  EXPECT_NE(findings[0].note.find("degenerate"), std::string::npos) << findings[0].note;
  const std::string markdown =
      render_markdown_dashboard(findings, store_with(path, medians).series());
  EXPECT_NE(markdown.find("degenerate-baseline-ci"), std::string::npos);

  // A constant window is a zero-width interval, not a wide one.
  const std::string flat = temp_path("hist_degenerate_flat.jsonl");
  const auto flat_findings =
      analyze_all(store_with(flat, std::vector<double>(10, 1.0)).series());
  ASSERT_EQ(flat_findings.size(), 1u);
  EXPECT_FALSE(flat_findings[0].baseline_ci_degenerate);
}

TEST(Detect, StepInLastTwoPointsIsCaughtByTailTest) {
  // ROADMAP item 5 blind spot, pinned: a step at n-2 of a batch-ingested
  // history. The KW scan's 2-point suffix cannot survive Bonferroni, and
  // the 8-point baseline window already contains the stepped point (its
  // degenerate [min, max] CI overlaps the latest CI). Only the exact
  // tail rank-separation test fires: p = 2 / C(10, 2) ~ 0.044 < 0.05.
  const std::string path = temp_path("hist_tail_step.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 10; ++i) medians.push_back(1.0 + 0.001 * (i % 3));
  medians.push_back(1.5);  // the step lands at n-2...
  medians.push_back(1.5);  // ...and the latest point confirms the regime
  const HistoryStore store = store_with(path, medians);
  const auto findings = analyze_all(store.series());
  ASSERT_EQ(findings.size(), 1u);
  // The two legacy gating detectors are blind here -- the reason this
  // test exists. If either starts firing, the scenario no longer pins
  // the tail test and needs rebuilding.
  EXPECT_FALSE(findings[0].ci_disjoint);
  EXPECT_FALSE(findings[0].changepoint);
  EXPECT_TRUE(findings[0].tail_step);
  EXPECT_EQ(findings[0].tail_k, 2u);
  EXPECT_LT(findings[0].tail_p, 0.05);
  EXPECT_GT(findings[0].tail_shift, 0.4);
  EXPECT_EQ(findings[0].verdict, Verdict::kRegression);
  EXPECT_TRUE(any_regression(findings));
  EXPECT_NE(findings[0].note.find("step in last 2"), std::string::npos)
      << findings[0].note;
  const std::string markdown = render_markdown_dashboard(findings, store.series());
  EXPECT_NE(markdown.find("tail-step"), std::string::npos);
}

TEST(Detect, StepInLastThreePointsIsCaughtByTailTest) {
  const std::string path = temp_path("hist_tail3.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 10; ++i) medians.push_back(1.0 + 0.001 * (i % 3));
  for (int i = 0; i < 3; ++i) medians.push_back(1.4 + 0.001 * i);
  const auto findings = analyze_all(store_with(path, medians).series());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].tail_step);
  EXPECT_EQ(findings[0].tail_k, 3u);  // k=3 gives the smaller exact p
  EXPECT_EQ(findings[0].verdict, Verdict::kRegression);
}

TEST(Detect, TailTestIsOneSidedAndRespectsImproveDirection) {
  // A tail step in the BETTER direction never fires (one-sided by
  // construction)...
  const std::string better = temp_path("hist_tail_better.jsonl");
  std::vector<double> faster;
  for (int i = 0; i < 10; ++i) faster.push_back(1.0 + 0.001 * (i % 3));
  faster.push_back(0.5);
  faster.push_back(0.5);
  const auto better_findings = analyze_all(store_with(better, faster).series());
  EXPECT_FALSE(better_findings[0].tail_step);
  EXPECT_FALSE(any_regression(better_findings));

  // ...and for a higher-is-better metric "worse" means a drop.
  const std::string drop = temp_path("hist_tail_drop.jsonl");
  std::vector<double> throughput;
  for (int i = 0; i < 10; ++i) throughput.push_back(1000.0 + (i % 3));
  throughput.push_back(600.0);
  throughput.push_back(600.0);
  const auto drop_findings =
      analyze_all(store_with(drop, throughput, obs::Improve::kHigher).series());
  EXPECT_TRUE(drop_findings[0].tail_step);
  EXPECT_EQ(drop_findings[0].verdict, Verdict::kRegression);
}

TEST(Detect, TailTestStaysQuietBelowMinEffectAndOnTies) {
  // Full separation but a 2% shift: below min_effect, stays stable.
  const std::string small = temp_path("hist_tail_small.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 10; ++i) medians.push_back(1.0 + 0.0001 * (i % 3));
  medians.push_back(1.02);
  medians.push_back(1.02);
  const auto findings = analyze_all(store_with(small, medians).series());
  EXPECT_FALSE(findings[0].tail_step);
  EXPECT_EQ(findings[0].verdict, Verdict::kStable);

  // A tie between tail and baseline max breaks strict separation: the
  // exact p is only valid under full separation, so no flag.
  const std::string tied = temp_path("hist_tail_tied.jsonl");
  std::vector<double> tie;
  for (int i = 0; i < 9; ++i) tie.push_back(1.0);
  tie.push_back(1.5);  // baseline already contains the level
  tie.push_back(1.5);
  tie.push_back(1.5);
  // tail k=2 = {1.5, 1.5} vs baseline containing 1.5: not separated;
  // k=3 = last three 1.5s vs all-1.0 baseline IS separated -- the step
  // at n-3 is caught by k=3 exactly as designed.
  const auto tie_findings = analyze_all(store_with(tied, tie).series());
  EXPECT_TRUE(tie_findings[0].tail_step);
  EXPECT_EQ(tie_findings[0].tail_k, 3u);
}

TEST(Detect, WideBaselineWindowEscapesDegeneracy) {
  // With 20 baseline points the rank CI's clamped indices pull inside
  // the observed range and the flag clears.
  const std::string path = temp_path("hist_wide_window.jsonl");
  rng::Xoshiro256 gen(0xbead);
  std::vector<double> medians;
  for (int i = 0; i < 25; ++i) {
    medians.push_back(1.0 + 0.01 * rng::normal(gen, 0.0, 1.0));
  }
  DetectionOptions options;
  options.baseline_window = 20;
  const auto findings = analyze_all(store_with(path, medians).series(), options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].baseline_ci_degenerate);
  EXPECT_EQ(findings[0].note.find("degenerate"), std::string::npos);
}

// --------------------------------------------------------- dashboard

TEST(Dashboard, MarkdownAndHtmlRenderFindings) {
  const std::string path = temp_path("hist_dash.jsonl");
  std::vector<double> medians;
  for (int i = 0; i < 10; ++i) medians.push_back(1.0 + 0.001 * (i % 3));
  medians.push_back(1.5);
  const HistoryStore store = store_with(path, medians);
  const auto series = store.series();
  const auto findings = analyze_all(series);

  const std::string md = render_markdown_dashboard(findings, series);
  EXPECT_NE(md.find("| bench |"), std::string::npos);
  EXPECT_NE(md.find("REGRESSION"), std::string::npos);
  EXPECT_NE(md.find("demo"), std::string::npos);

  const std::string html = render_html_dashboard(findings, series);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("class=\"regression\""), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

}  // namespace
}  // namespace sci::ci
