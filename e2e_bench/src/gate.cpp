// `gate`: the `scibench_ci gate` journey, in process.
//
// Writes: HistoryStore::ingest of 100 seeded scibench.bench reports, one
// per commit, with 4 to 6 metrics each. Reads: reopen the store, run
// ci::analyze_all with default options, render the markdown dashboard.
// There is no simulator here; the quantile-regression trend (one fit plus
// 200 bootstrap refits per metric) dominates, so QR work shows most on
// this workload and simulator work must show nothing.
//
// Injected history: `lat.step` steps up 30% at point n-2 (the only
// regression the detectors may report), `lat.drift` drifts 6% worse over
// the whole history (a trend, which is dashboard-only), and every other
// metric is flat with +-1% noise.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "ci/dashboard.hpp"
#include "ci/detect.hpp"
#include "ci/history.hpp"
#include "harness.hpp"
#include "rng/xoshiro.hpp"
#include "stats/quantile_regression.hpp"

namespace ci = sci::ci;
namespace obs = sci::obs;

namespace e2e {

namespace {

constexpr std::size_t kCommits = 100;
constexpr std::size_t kSetupRepeats = 200;

struct Generator {
  std::uint64_t state;
  double uniform() {  // [0, 1)
    return static_cast<double>(sci::rng::splitmix64_next(state) >> 11) * 0x1.0p-53;
  }
};

obs::BenchMetric metric(const char* name, const char* unit, obs::Improve improve,
                        double median) {
  obs::BenchMetric m;
  m.name = name;
  m.unit = unit;
  m.improve = improve;
  m.n = 9;
  m.median = median;
  m.ci_lo = median * 0.98;
  m.ci_hi = median * 1.02;
  return m;
}

std::vector<obs::BenchReport> make_history(std::uint64_t seed) {
  Generator g{seed};
  const auto noisy = [&](double base) { return base * (1.0 + 0.02 * (g.uniform() - 0.5)); };
  std::vector<obs::BenchReport> reports;
  for (std::size_t i = 0; i < kCommits; ++i) {
    obs::BenchReport r;
    r.bench = "e2e_gate_fixture";
    char sha[41];
    std::snprintf(sha, sizeof sha, "%016llx%016llx%08x",
                  static_cast<unsigned long long>(sci::rng::splitmix64_next(g.state)),
                  static_cast<unsigned long long>(sci::rng::splitmix64_next(g.state)),
                  static_cast<unsigned>(i));
    r.git_sha = sha;
    r.context["host"] = "fixture";
    const double drift = 1.0 + 0.06 * static_cast<double>(i) / (kCommits - 1);
    const double step = i + 2 >= kCommits ? 1.3 : 1.0;
    r.metrics.push_back(metric("lat.p50", "us", obs::Improve::kLower, noisy(12.0)));
    r.metrics.push_back(metric("throughput", "1/s", obs::Improve::kHigher, noisy(8.0e4)));
    r.metrics.push_back(metric("lat.step", "us", obs::Improve::kLower, noisy(40.0) * step));
    r.metrics.push_back(
        metric("lat.drift", "ms", obs::Improve::kLower, noisy(3.0) * drift));
    if (g.uniform() < 0.5) {
      r.metrics.push_back(
          metric("alloc.count", "count", obs::Improve::kLower, noisy(512.0)));
    }
    if (g.uniform() < 0.5) {
      r.metrics.push_back(metric("rss", "MB", obs::Improve::kLower, noisy(64.0)));
    }
    reports.push_back(std::move(r));
  }
  return reports;
}

}  // namespace

void gate_iteration(const Options& opt, Tracer* t, Outcome& out) {
  const std::vector<obs::BenchReport> reports = make_history(opt.seed);
  const std::set<std::string> injected = {"lat.step"};
  const std::string path = opt.work_dir + "/history.jsonl";
  std::remove(path.c_str());

  const double s0 = now_s();
  for (std::size_t r = 0; r < kSetupRepeats; ++r) ci::HistoryStore probe(path);
  out.samples.add("setup_s", (now_s() - s0) / kSetupRepeats);
  ci::HistoryStore store(path);

  const double w0 = now_s();
  std::vector<double> ingest_ms;
  for (const auto& report : reports) {
    ScopedSpan span(t, 0, "ci.ingest", "ci");
    const double i0 = now_s();
    const std::size_t added = store.ingest(report);
    ingest_ms.push_back((now_s() - i0) * 1e3);
    out.tally.op(added == report.metrics.size());
  }
  const double l0 = now_s();
  const std::vector<ci::MetricSeries> series = [&] {
    ScopedSpan span(t, 0, "ci.load", "ci");
    return ci::HistoryStore(path).series();
  }();
  const double a0 = now_s();
  const std::vector<ci::Finding> findings = [&] {
    ScopedSpan span(t, 0, "ci.analyze_all", "ci");
    return ci::analyze_all(series);
  }();
  const double d0 = now_s();
  const std::string dashboard = [&] {
    ScopedSpan span(t, 0, "ci.render_markdown_dashboard", "ci");
    return ci::render_markdown_dashboard(findings, series);
  }();
  const double w1 = now_s();
  out.samples.add("peak_rss_mb", peak_rss_mb());

  std::set<std::string> flagged;
  for (const auto& f : findings) {
    if (f.verdict == ci::Verdict::kRegression) flagged.insert(f.metric);
  }
  out.tally.op(flagged == injected && !dashboard.empty());

  if (t == nullptr) {
    out.samples.add("wall_s", w1 - w0);
    for (double v : ingest_ms) out.samples.add("job_ms", v);
    return;
  }
  out.samples.add("traced_wall_s", w1 - w0);
  out.samples.add("ci.ingest_ms.p50", percentile(ingest_ms, 0.5));
  out.samples.add("ci.ingest_ms.p90", percentile(ingest_ms, 0.9));
  out.samples.add("ci.load_s", a0 - l0);
  out.samples.add("ci.analyze_s", d0 - a0);
  out.samples.add("ci.dashboard_ms", (w1 - d0) * 1e3);

  // Per-series cost and the trend's QR cost, re-issued after the journey
  // with the detector's own arguments (ci/detect.cpp), since analyze_all
  // gives no finer split from outside the library.
  std::vector<double> series_ms;
  std::vector<double> fit_ms;
  double trend_s = 0.0;
  for (const auto& s : series) {
    const double s1 = now_s();
    (void)ci::analyze_series(s);
    series_ms.push_back((now_s() - s1) * 1e3);
    const std::vector<double> y = s.medians();
    if (y.size() < 6) continue;
    std::vector<std::vector<double>> design;
    for (std::size_t i = 0; i < y.size(); ++i) design.push_back({static_cast<double>(i)});
    const double f0 = now_s();
    (void)sci::stats::quantile_regression(y, design, 0.5);
    const double f1 = now_s();
    (void)sci::stats::quantile_regression_bootstrap_ci(
        y, design, 0.5, 200, 0.95, 0x5c1b3,
        sci::stats::ExecPolicy{1, ci::DetectionOptions{}.policy.effective_lanes()});
    trend_s += now_s() - f0;
    fit_ms.push_back((f1 - f0) * 1e3);
  }
  out.samples.add("ci.series_ms.p50", percentile(series_ms, 0.5));
  out.samples.add("stats.trend_fit_s", trend_s);
  out.samples.add("stats.qr_fit_ms", percentile(fit_ms, 0.5));
  out.samples.add("stats.qr_share", trend_s / (w1 - w0));
}

}  // namespace e2e
