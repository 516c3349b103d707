// `study`: the latency_study -> CSV -> scibench_report journey, in process.
//
// One iteration runs a CampaignRunner over a SimBackend pingpong grid
// (3 systems x 4 message sizes x 10 replications x 5000 samples) with the
// journal on, exports samples_dataset() as CSV, reloads it the way
// scibench_report does (exec::load_measurements + summarize_configs), and
// fits the four quantile regressions latency_study fits on its strided
// 64 B dora/pilatus design (n = 500). The simulator and the QR solver
// both carry real weight here, so sim/runner and QR work both show.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "exec/ingest.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "harness.hpp"
#include "obs/counters.hpp"
#include "rng/xoshiro.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"
#include "stats/confidence.hpp"
#include "stats/quantile_regression.hpp"
#include "timed_backend.hpp"

namespace exec = sci::exec;
namespace stats = sci::stats;

namespace e2e {

namespace {

constexpr std::size_t kSetupRepeats = 200;
constexpr double kTaus[] = {0.1, 0.5, 0.9, 0.98};

struct QrDesign {
  std::vector<double> y;
  std::vector<std::vector<double>> x;
};

/// latency_study's tail design: 64 B pingpong on dora and pilatus,
/// every 32nd of 8000 samples, group indicator as the one regressor.
QrDesign make_design(std::uint64_t seed) {
  const auto us = [seed](const char* machine) {
    auto series =
        sci::simmpi::pingpong_latency(sci::sim::make_machine(machine), 8000, 64, seed);
    for (double& v : series) v *= 1e6;
    return series;
  };
  const auto dora = us("dora");
  const auto pilatus = us("pilatus");
  QrDesign d;
  for (std::size_t i = 0; i < dora.size(); i += 32) {
    d.y.push_back(dora[i]);
    d.x.push_back({0.0});
    d.y.push_back(pilatus[i]);
    d.x.push_back({1.0});
  }
  return d;
}

/// The design is one binary regressor, so the model is saturated per
/// group and the exact optimum is the check loss at each group's
/// tau-quantile (order statistic ceil(tau*n)).
double optimal_check_loss(const QrDesign& d, double tau) {
  double loss = 0.0;
  for (double group : {0.0, 1.0}) {
    std::vector<double> ys;
    for (std::size_t i = 0; i < d.y.size(); ++i) {
      if (d.x[i][0] == group) ys.push_back(d.y[i]);
    }
    std::sort(ys.begin(), ys.end());
    const auto k =
        static_cast<std::size_t>(std::ceil(tau * static_cast<double>(ys.size())));
    const double q = ys[std::clamp<std::size_t>(k, 1, ys.size()) - 1];
    for (double v : ys) {
      const double u = v - q;
      loss += u * (tau - (u < 0.0 ? 1.0 : 0.0));
    }
  }
  return loss;
}

bool same_summaries(const std::vector<exec::ConfigSummary>& reloaded,
                    const std::vector<stats::QuantileSummary>& own) {
  if (reloaded.size() != own.size()) return false;
  for (std::size_t c = 0; c < own.size(); ++c) {
    const auto& a = reloaded[c].summary;
    const auto& b = own[c];
    if (reloaded[c].config != c || a.value != b.value || a.ci.lower != b.ci.lower ||
        a.ci.upper != b.ci.upper || a.n != b.n) {
      return false;
    }
  }
  return true;
}

}  // namespace

void study_iteration(const Options& opt, Tracer* t, Outcome& out) {
  std::uint64_t stream = opt.seed;
  exec::CampaignSpec spec;
  spec.name = "e2e_study";
  spec.description = "three-system pingpong latency grid";
  spec.factors.push_back({"system", {"dora", "pilatus", "daint"}});
  spec.factors.push_back({"message_bytes", {"8", "64", "4096", "65536"}});
  spec.replications = 10;
  spec.seed = sci::rng::splitmix64_next(stream);
  exec::SimBackendOptions bopts;
  bopts.kernel = exec::SimKernel::kPingPong;
  bopts.samples = 5000;
  bopts.scale = 1e6;
  bopts.unit = "us";
  const QrDesign design = make_design(sci::rng::splitmix64_next(stream));

  const std::size_t threads =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  const std::string journal = opt.work_dir + "/study.journal";
  const std::string csv = opt.work_dir + "/study_samples.csv";
  exec::CampaignRunnerOptions ropts;
  ropts.workers = threads;
  ropts.journal_path = journal;
  std::remove(journal.c_str());

  const double s0 = now_s();
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    exec::SimBackend backend(bopts);
    exec::CampaignRunner runner(backend, exec::Campaign(spec), ropts);
  }
  out.samples.add("setup_s", (now_s() - s0) / kSetupRepeats);
  exec::SimBackend sim(bopts);
  TimedBackend backend(sim, t);
  exec::CampaignRunner runner(backend, exec::Campaign(spec), ropts);

  const auto counters0 = sci::obs::CounterRegistry::instance().snapshot();
  const double w0 = now_s();
  exec::CampaignResult result;
  double runner_s = 0.0;
  {
    ScopedSpan span(t, 0, "exec.runner.run", "exec.runner");
    backend.set_parent(span.id());
    const double r0 = now_s();
    result = runner.run();
    runner_s = now_s() - r0;
  }
  const double c0 = now_s();
  {
    ScopedSpan span(t, 0, "core.save_csv", "core");
    result.samples_dataset().save_csv(csv);
  }
  const double l0 = now_s();
  const exec::Ingested ingested = [&] {
    ScopedSpan span(t, 0, "exec.load_measurements", "exec.ingest");
    return exec::load_measurements(csv);
  }();
  const double m0 = now_s();
  std::vector<exec::ConfigSummary> summaries;
  {
    ScopedSpan span(t, 0, "exec.summarize_configs", "exec.ingest");
    summaries = exec::summarize_configs(ingested, 0.5);
  }
  const double q0 = now_s();
  std::vector<stats::QuantRegResult> fits;
  std::vector<double> fit_ms;
  for (double tau : kTaus) {
    ScopedSpan span(t, 0, "stats.quantile_regression", "stats");
    const double f0 = now_s();
    fits.push_back(stats::quantile_regression(design.y, design.x, tau));
    fit_ms.push_back((now_s() - f0) * 1e3);
  }
  const double w1 = now_s();
  const auto counters =
      sci::obs::snapshot_delta(counters0, sci::obs::CounterRegistry::instance().snapshot());
  out.samples.add("peak_rss_mb", peak_rss_mb());

  // Output checks: every cell ran, the reloaded CSV summarizes exactly
  // like the in-memory result, and every fit reaches the exact optimum.
  out.tally.ops(result.cells.size(), result.failed);
  std::vector<std::vector<double>> groups;
  for (std::size_t c = 0; c < result.config_count(); ++c) {
    groups.push_back(result.merged_series(c));
  }
  out.tally.op(result.failed == 0 &&
               same_summaries(summaries, stats::grouped_quantile_summary(groups, 0.5)));
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const double optimum = optimal_check_loss(design, kTaus[i]);
    const double tol = 1e-9 * std::max(1.0, std::fabs(optimum));
    out.tally.op(fits[i].converged && std::fabs(fits[i].objective - optimum) <= tol);
  }

  const std::vector<double> cells = backend.take_cell_seconds();
  if (t == nullptr) {
    out.samples.add("wall_s", w1 - w0);
    for (double s : cells) out.samples.add("job_ms", s * 1e3);
    return;
  }
  out.samples.add("traced_wall_s", w1 - w0);
  double busy = 0.0;
  std::vector<double> ms;
  for (double s : cells) {
    busy += s;
    ms.push_back(s * 1e3);
  }
  out.samples.add("sim.cell_ms.p50", percentile(ms, 0.5));
  out.samples.add("sim.cell_ms.p99", percentile(ms, 0.99));
  out.samples.add("sim.busy_s", busy);
  add_sim_counters(out.samples, counters);
  out.samples.add("exec.runner_s", runner_s);
  out.samples.add("exec.runner_wait_frac",
                  1.0 - busy / (runner_s * static_cast<double>(threads)));
  out.samples.add("exec.journal_bytes", static_cast<double>(file_bytes(journal)));
  out.samples.add("core.csv_write_s", l0 - c0);
  out.samples.add("core.csv_bytes", static_cast<double>(file_bytes(csv)));
  out.samples.add("exec.ingest_load_s", m0 - l0);
  out.samples.add("exec.summarize_s", q0 - m0);
  out.samples.add("stats.qr_fit_ms", percentile(fit_ms, 0.5));
  out.samples.add("stats.qr_share", (w1 - q0) / (w1 - w0));
}

}  // namespace e2e
