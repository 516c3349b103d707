// A complete two-system latency study on the simulated clusters: the
// workflow a paper comparing interconnects should follow -- now phrased
// as a sci::exec campaign, so the factorial design (Rule 9) is the
// executable artifact instead of prose around hand-rolled loops.
//
//   declare   system x message_bytes grid + fixed environment
//   measure   CampaignRunner shards the grid across workers; every cell
//             is pingpong_latency on a fresh simulated machine
//   analyze   normality diagnosis, median + CIs, Kruskal-Wallis,
//             effect size, quantile regression for tail behaviour
//   persist   CSV datasets with embedded experiment documentation
//   report    rule-audited text report with plots
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/plots.hpp"
#include "core/report.hpp"
#include "exec/interrupt.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"
#include "stats/compare.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_regression.hpp"

using namespace sci;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--stopping fixed|ci:WIDTH[@pNN]]\n"
               "  fixed (default): one 50k-sample replication per cell, the\n"
               "      historical fixed-seed study\n"
               "  ci:WIDTH: sequential stopping -- smaller replications are\n"
               "      added round by round until the median's 95%% rank CI\n"
               "      half-width falls below WIDTH (relative), per cell\n"
               "  ci:WIDTH@pNN: same, but converge the NN-th percentile\n"
               "      instead of the median (e.g. ci:0.1@p99 for tail\n"
               "      latency); NN in (0, 100)\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // --stopping ci:W swaps the fixed single-replication design for the
  // round-structured sequential campaign: many small replications per
  // cell, each cell stopping as soon as its CI is tight enough.
  double ci_target = 0.0;
  double stop_quantile = 0.5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stopping" && i + 1 < argc) {
      std::string value = argv[++i];
      if (value.rfind("ci:", 0) == 0) {
        // ci:WIDTH@pNN converges the NN-th percentile instead of the
        // median -- the tail-latency study design (Rule 8: report
        // percentiles when the tail is the claim).
        const std::size_t at = value.find("@p");
        if (at != std::string::npos) {
          const double pct = std::atof(value.c_str() + at + 2);
          if (!(pct > 0.0 && pct < 100.0)) return usage(argv[0]);
          stop_quantile = pct / 100.0;
          value.resize(at);
        }
        ci_target = std::atof(value.c_str() + 3);
        if (!(ci_target > 0.0)) return usage(argv[0]);
      } else if (value != "fixed") {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  const bool sequential = ci_target > 0.0;

  // Sequential mode measures in smaller units so the stopping rule has
  // replications to decide over; fixed mode keeps the historical 50k.
  const std::size_t kSamples = sequential ? 2'000 : 50'000;
  const std::vector<std::string> systems = {"dora", "pilatus"};
  const std::vector<std::string> sizes = {"64", "4096"};

  // The factorial design, declared once: it drives execution AND the
  // Rule 9 documentation in every report/CSV produced below.
  exec::CampaignSpec spec;
  spec.name = "latency_study";
  spec.description = "two-system ping-pong latency comparison";
  spec.base.set("system.dora", "simulated Cray XC40, Aries dragonfly (see sim/machine.cpp)")
      .set("system.pilatus", "simulated InfiniBand FDR fat tree")
      .set("samples", std::to_string(kSamples) + " per configuration, 16 warmup")
      .set("placement", "two ranks on distinct nodes, scattered allocation");
  spec.base.synchronization_method = "none (two-sided pingpong, rank-0 clock)";
  spec.base.summary_across_processes = "rank-0 half round-trip";
  spec.factors.push_back({"system", systems});
  spec.factors.push_back({"message_bytes", sizes});
  if (sequential) {
    // Replications must be independent for the pooled rank CI to mean
    // anything, so the per-(cell, rep) derived seeds stay in force here;
    // the fixed-seed override below is a fixed-mode-only artifact.
    spec.stopping = exec::StoppingPolicy::sequential_ci(ci_target, 4, 48);
    // Tail-percentile convergence (ci:WIDTH@pNN). The stopping rule's
    // rank CI machinery is quantile-generic; only the target changes.
    spec.stopping.quantile = stop_quantile;
  } else {
    // Reproduce the historical study: every cell ran with seed 2024.
    spec.seed_override = [](const exec::Config&, std::size_t) { return 2024ULL; };
  }

  exec::SimBackendOptions bopts;
  bopts.kernel = exec::SimKernel::kPingPong;
  bopts.samples = kSamples;
  bopts.scale = 1e6;  // report microseconds
  bopts.unit = "us";
  exec::SimBackend backend(bopts);

  // ^C / SIGTERM drains the grid instead of tearing the process down
  // mid-write; the metrics snapshot below still lands atomically.
  exec::install_interrupt_handlers();

  // Progress telemetry: a stderr heartbeat while the grid executes and a
  // machine-readable snapshot on completion (the campaign-smoke CI job
  // asserts this file exists and parses).
  exec::StderrHeartbeat heartbeat;
  exec::CampaignRunnerOptions ropts;
  ropts.progress = &heartbeat;
  ropts.heartbeat_period_s = 2.0;
  ropts.interrupt = exec::interrupt_flag();
  // Sequential runs write under their own stem so a fixed run's outputs
  // in the same directory survive a side-by-side comparison.
  const std::string stem = sequential ? "latency_study_seq" : "latency_study";
  ropts.metrics_path = stem + "_metrics.json";

  exec::CampaignRunner runner(backend, exec::Campaign(spec), ropts);
  const exec::CampaignResult run = runner.run();

  if (run.interrupted > 0) {
    // Partial grid: the analysis below would index missing cells.
    // Metrics already describe how far the run got; exit with the
    // shared resume convention instead.
    std::fprintf(stderr, "interrupted: %zu cell(s) not executed; rerun to complete\n",
                 run.interrupted);
    return exec::kInterruptedExitCode;
  }

  if (sequential) {
    // Per-cell stop decisions: the sequential analogue of "samples per
    // configuration" in the fixed design's environment block.
    std::printf("measurement control: %s (%zu round%s)\n",
                spec.stopping.describe().c_str(), run.rounds,
                run.rounds == 1 ? "" : "s");
    for (std::size_t c = 0; c < run.stopping.size(); ++c) {
      const auto& info = run.stopping[c];
      if (info.converged && info.reps < spec.stopping.max_reps) {
        std::printf("  config %zu: stopped early at %zu/%zu reps, CI +-%.1f%%\n", c,
                    info.reps, spec.stopping.max_reps,
                    info.rel_ci_half_width * 100.0);
      } else {
        std::printf("  config %zu: %s at %zu reps, CI +-%.1f%%\n", c,
                    info.stop_reason.c_str(), info.reps,
                    info.rel_ci_half_width * 100.0);
      }
    }
    std::printf("\n");
  }

  const core::Experiment e = run.experiment;
  core::Dataset ds(e, {"system", "bytes", "median_us", "q99_us", "kw_p"});
  core::ReportBuilder report(e);
  report.declare_units_convention();

  // Grid order is system-major; index cells as (system, size). Merging
  // pools all replications of a config -- identical to the single series
  // in the fixed one-rep design, the whole point under sequential
  // stopping.
  const auto cell = [&](std::size_t sys, std::size_t size) {
    return run.merged_series(sys * sizes.size() + size);
  };

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::size_t bytes = static_cast<std::size_t>(std::stoul(sizes[s]));
    const auto& dora = cell(0, s);
    const auto& pilatus = cell(1, s);

    const std::string tag = sizes[s] + "B";
    report.add_series({"dora_" + tag, "us", dora});
    report.add_series({"pilatus_" + tag, "us", pilatus});

    const std::vector<std::vector<double>> groups = {dora, pilatus};
    const auto kw = stats::kruskal_wallis(groups);
    const double effect = stats::effect_size_cohens_d(dora, pilatus);
    report.add_comparison("dora_" + tag, "pilatus_" + tag, "Kruskal-Wallis", kw.p_value,
                          effect);

    const auto net = sim::make_dora().make_network();
    report.add_bound("dora_" + tag, "LogGP ideal one-way latency (us)",
                     net.ideal_transfer_time(0, 60, bytes) * 1e6);

    // One sort per series feeds both rank statistics (PR 3 convention;
    // median() + quantile() would each re-sort the 50k-sample cell).
    const auto dora_sorted = stats::sorted_copy(dora);
    const auto pilatus_sorted = stats::sorted_copy(pilatus);
    ds.add_row({0.0, static_cast<double>(bytes), stats::quantile_sorted(dora_sorted, 0.5),
                stats::quantile_sorted(dora_sorted, 0.99), kw.p_value});
    ds.add_row({1.0, static_cast<double>(bytes),
                stats::quantile_sorted(pilatus_sorted, 0.5),
                stats::quantile_sorted(pilatus_sorted, 0.99), kw.p_value});

    if (bytes == 64) {
      report.add_plot(core::render_box(
          std::vector<core::NamedSeries>{{"dora 64B", dora}, {"pilatus 64B", pilatus}},
          {.width = 64, .title = "64 B latency", .x_label = "us"}));
    }
  }

  // Tail behaviour via quantile regression on a thinned 64 B design
  // (every 32nd of 8000 samples per system, 500 points). Same seeds as
  // the historical run: a dedicated 8000-sample campaign cell pair.
  const auto thin_us = [](const sim::Machine& machine) {
    const auto series = simmpi::pingpong_latency(machine, 8000, 64, 2024);
    std::vector<double> us;
    us.reserve(series.size());
    for (double v : series) us.push_back(v * 1e6);
    return us;
  };
  const auto dora64 = thin_us(sim::make_machine("dora"));
  const auto pil64 = thin_us(sim::make_machine("pilatus"));
  std::vector<double> y;
  std::vector<std::vector<double>> x;
  for (std::size_t i = 0; i < dora64.size(); i += 32) {
    y.push_back(dora64[i]);
    x.push_back({0.0});
    y.push_back(pil64[i]);
    x.push_back({1.0});
  }
  std::printf("tail analysis (quantile regression, pilatus - dora):\n");
  for (double tau : {0.1, 0.5, 0.9, 0.98}) {
    const auto fit = stats::quantile_regression(y, x, tau);
    if (fit.converged) {
      std::printf("  tau=%.2f  difference=%+.3f us\n", tau, fit.coefficients[1]);
    } else {
      std::printf("  tau=%.2f  fit did not converge\n", tau);
    }
  }
  std::printf("\n");

  std::fputs(report.render().c_str(), stdout);
  std::fputs(core::ReportBuilder::render_audit(report.audit()).c_str(), stdout);

  const std::string csv = stem + ".csv";
  ds.save_csv(csv);
  std::printf("\nsummary dataset written to %s (R: read.csv(f, comment.char='#'))\n",
              csv.c_str());
  // Full per-sample export in campaign layout; scibench_report regroups
  // it per grid cell (exec::load_measurements).
  run.samples_dataset().save_csv(stem + "_samples.csv");
  std::printf("per-sample campaign dataset written to %s_samples.csv\n", stem.c_str());
  std::printf("campaign metrics snapshot written to %s_metrics.json\n", stem.c_str());
  return 0;
}
