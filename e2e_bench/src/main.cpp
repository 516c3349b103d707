// scibench_e2e: one end-to-end benchmark over three user journeys.
//
//   scibench_e2e --workload study|gate|service --seed N --seconds S
//                --trace 0|1 --tools DIR --work DIR --out DIR
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced iterations and reports the per-layer
// metrics, each layer's self time and the tracing overhead. Either way
// the run also writes a canonical scibench.bench report (median and 95%
// rank CI over the run's iterations, with provenance) to --out, checks
// that the history store ingests it, and with --trace 1 writes the spans
// as Chrome trace JSON and reads them back. The last stdout line is the
// result object: {"correct", "attempted", "failed", "metrics"}.
// e2e_bench/README.md describes the workloads and the metrics.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ci/history.hpp"
#include "harness.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "sim/frame_pool.hpp"
#include "stats/simd_dispatch.hpp"

extern char** environ;

namespace obs = sci::obs;
namespace json = sci::obs::json;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  obs::Improve improve = obs::Improve::kLower;
};

constexpr obs::Improve kHigher = obs::Improve::kHigher;

/// Printed with --trace 0. The name list is the contract in BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},     {"wall_s", "s"},      {"peak_rss_mb", "MB"},
    {"job_p50_ms", "ms"}, {"job_p95_ms", "ms"},
};

/// Printed with --trace 1, by every workload; a layer a workload does not
/// call reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"sim.cell_ms.p50", "ms"},
    {"sim.cell_ms.p99", "ms"},
    {"sim.busy_s", "s"},
    {"sim.events", "count"},
    {"sim.net_messages", "count"},
    {"sim.noise_draws", "count"},
    {"exec.runner_s", "s"},
    {"exec.runner_wait_frac", "ratio"},
    {"exec.journal_bytes", "bytes"},
    {"core.csv_write_s", "s"},
    {"core.csv_bytes", "bytes"},
    {"exec.ingest_load_s", "s"},
    {"exec.summarize_s", "s"},
    {"stats.qr_fit_ms", "ms"},
    {"stats.qr_share", "ratio"},
    {"stats.trend_fit_s", "s"},
    {"ci.ingest_ms.p50", "ms"},
    {"ci.ingest_ms.p90", "ms"},
    {"ci.load_s", "s"},
    {"ci.analyze_s", "s"},
    {"ci.series_ms.p50", "ms"},
    {"ci.dashboard_ms", "ms"},
    {"exec.service.queue_wait_ms.p50", "ms"},
    {"exec.service.queue_wait_ms.p95", "ms"},
    {"exec.service.first_cell_ms.p50", "ms"},
    {"exec.service.run_ms.p50", "ms"},
    {"exec.service.run_ms.p95", "ms"},
    {"exec.service.cells_fresh", "count"},
    {"exec.service.cells_deduped", "count", kHigher},
    {"exec.service.dedupe_ratio", "ratio", kHigher},
    {"exec.service.cells_executed_reported", "count"},
    {"exec.process_pool.rtt_ms.p50", "ms"},
    {"exec.process_pool.rtt_ms.p95", "ms"},
    {"exec.wire.cell_encode_us", "us"},
    {"exec.wire.cell_decode_us", "us"},
    {"self_s.sim", "s"},
    {"self_s.exec.runner", "s"},
    {"self_s.core", "s"},
    {"self_s.exec.ingest", "s"},
    {"self_s.stats", "s"},
    {"self_s.ci", "s"},
    {"self_s.exec.service", "s"},
    {"trace.overhead_s", "s"},
};

const MetricDef* find_def(const std::string& name) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& d : *table) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: scibench_e2e --workload study|gate|service --seed N --seconds S "
               "--trace 0|1 --tools DIR --work DIR --out DIR\n");
  return 2;
}

constexpr double kIterationTimeout_s = 150.0;

/// Child mode: one iteration in this process, its samples and tally
/// written to `result_path` as JSON.
int run_child(const e2e::Options& opt, bool traced, const std::string& result_path) {
  e2e::Tracer tracer;
  e2e::Tracer* t = traced ? &tracer : nullptr;
  e2e::Outcome out;
  if (opt.workload == "study") e2e::study_iteration(opt, t, out);
  else if (opt.workload == "gate") e2e::gate_iteration(opt, t, out);
  else if (opt.workload == "service") e2e::service_iteration(opt, t, out);
  else return usage();

  if (traced) {
    for (const char* layer : e2e::layers()) {
      out.samples.add(std::string("self_s.") + layer, tracer.self_seconds(layer));
    }
    // Spans stay in memory until here; the file must read back whole.
    const std::string trace_path = opt.out_dir + "/e2e_" + opt.workload + ".trace.json";
    tracer.save(trace_path);
    const std::size_t spans = tracer.spans().size();
    out.tally.op(spans > 0 && obs::load_trace(trace_path).events.size() == spans);
  }

  std::string text = "{\"attempted\": " + json::dump_size(out.tally.attempted) +
                     ", \"failed\": " + json::dump_size(out.tally.failed) +
                     ", \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : out.samples.all()) {
    text += first ? "" : ", ";
    first = false;
    text += json::quoted(name) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      text += (i == 0 ? "" : ", ") + json::dump_number(values[i]);
    }
    text += "]";
  }
  text += "}}\n";
  return obs::write_file_atomic(result_path, text) ? 0 : 1;
}

/// Runs one iteration in a fresh child process (its own process group,
/// so a timeout also takes down a daemon it started) and merges its
/// result into `out`.
void spawn_iteration(const std::vector<std::string>& base_args, bool traced,
                     const std::string& result_path, e2e::Outcome& out) {
  std::vector<std::string> args = base_args;
  args.insert(args.end(), {"--child", result_path, "--traced", traced ? "1" : "0"});
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  std::remove(result_path.c_str());
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, "/proc/self/exe", nullptr, &attr, argv.data(), environ);
  posix_spawnattr_destroy(&attr);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn an iteration: " +
                             std::string(std::strerror(rc)));
  }
  // Block in waitpid rather than poll, so the parent stays off the CPUs
  // the iteration measures; a watchdog kills the group on timeout.
  int status = 0;
  {
    std::mutex mutex;
    std::condition_variable reaped_cv;
    bool reaped = false;
    std::jthread watchdog([&] {
      std::unique_lock<std::mutex> lock(mutex);
      const auto timeout = std::chrono::duration<double>(kIterationTimeout_s);
      if (!reaped_cv.wait_for(lock, timeout, [&] { return reaped; })) ::kill(-pid, SIGKILL);
    });
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      reaped = true;
    }
    reaped_cv.notify_one();
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    ::kill(-pid, SIGKILL);  // anything the iteration left behind
    throw std::runtime_error("iteration failed (status " + std::to_string(status) + ")");
  }
  std::ifstream is(result_path, std::ios::binary);
  std::stringstream text;
  text << is.rdbuf();
  const json::Value result = json::parse(text.str());
  out.tally.ops(result.at("attempted").as_size(), result.at("failed").as_size());
  for (const auto& [name, values] : result.at("samples").object) {
    for (const json::Value& v : values.array) out.samples.add(name, v.as_number());
  }
}

/// The run's own scibench.bench report: every sampled metric as median
/// and 95% rank CI over the iterations, plus provenance.
obs::BenchReport self_report(const e2e::Options& opt, const e2e::Outcome& out) {
  obs::BenchReporter reporter("e2e_" + opt.workload + (opt.trace ? "_traced" : ""));
  reporter.set_context("workload", opt.workload)
      .set_context("seed", std::to_string(opt.seed))
      .set_context("seconds", json::dump_number(opt.seconds))
      .set_context("tracing", opt.trace ? "spans" : "off")
      .set_context("tracing_compiled", SCIBENCH_TRACING ? "1" : "0")
      .set_context("pooling", SCIBENCH_POOLING ? "1" : "0")
      .set_context("isa", sci::stats::simd::to_string(sci::stats::simd::active_isa()))
      .set_context("nproc", std::to_string(std::thread::hardware_concurrency()))
      .set_context("compiler", __VERSION__);
  for (const auto& [name, values] : out.samples.all()) {
    const MetricDef* def = find_def(name);
    reporter.add_metric(name, def != nullptr ? def->unit : "s", values,
                        def != nullptr ? def->improve : obs::Improve::kLower);
  }
  const double error_rate =
      static_cast<double>(out.tally.failed) / static_cast<double>(out.tally.attempted);
  reporter.add_metric("error_rate", "ratio", std::vector<double>{error_rate});
  reporter.add_counter("attempted", out.tally.attempted);
  reporter.add_counter("failed", out.tally.failed);
  return reporter.report();
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  std::string child_result;
  bool child_traced = false;
  std::vector<std::string> base_args = {argv[0]};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--child") child_result = value;
    else if (key == "--traced") child_traced = value == "1";
    else base_args.insert(base_args.end(), {key, value});
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--tools") opt.tools_dir = value;
    else if (key == "--work") opt.work_dir = value;
    else if (key == "--out") opt.out_dir = value;
    else if (key != "--child" && key != "--traced") return usage();
  }
  if (argc % 2 == 0 || opt.tools_dir.empty() || opt.work_dir.empty() ||
      opt.out_dir.empty() || !(opt.seconds > 0.0) ||
      (opt.workload != "study" && opt.workload != "gate" && opt.workload != "service")) {
    return usage();
  }

  try {
    if (!child_result.empty()) return run_child(opt, child_traced, child_result);
    std::filesystem::remove_all(opt.work_dir);  // leftovers of an aborted run
    std::filesystem::create_directories(opt.work_dir);
    std::filesystem::create_directories(opt.out_dir);

    // Iterations repeat until --seconds would be overrun: at least three
    // untraced ones, or with --trace 1 at least one untraced/traced pair,
    // the two alternating.
    e2e::Outcome out;
    const std::string result_path = opt.work_dir + "/iteration.json";
    const std::size_t min_iterations = opt.trace ? 2 : 3;
    const double t0 = e2e::now_s();
    double step_start = t0;  // an untraced iteration, or an untraced/traced pair
    double longest_step = 0.0;
    for (std::size_t i = 0;; ++i) {
      const bool traced = opt.trace && i % 2 == 1;
      if (!traced) {
        if (i >= min_iterations && e2e::now_s() - t0 + longest_step > opt.seconds) break;
        step_start = e2e::now_s();
      }
      spawn_iteration(base_args, traced, result_path, out);
      if (traced || !opt.trace) {
        longest_step = std::max(longest_step, e2e::now_s() - step_start);
      }
    }
    if (out.samples.has("job_ms")) e2e::add_per_job_percentiles(out.samples);
    if (opt.trace) {
      out.samples.add("trace.overhead_s",
                      out.samples.median("traced_wall_s") - out.samples.median("wall_s"));
    }

    // The self-report must be what `scibench_ci ingest` accepts: parse
    // it back from disk and ingest it into a fresh history.
    const obs::BenchReport report = self_report(opt, out);
    const std::string report_path = obs::BenchReporter(report.bench).json_path(opt.out_dir);
    const std::string history = opt.work_dir + "/self_report_history.jsonl";
    const bool ingested =
        obs::write_file_atomic(report_path, obs::bench_report_json(report)) &&
        sci::ci::HistoryStore(history).ingest(obs::load_bench_report(report_path)) ==
            report.metrics.size();
    out.tally.op(ingested);

    const auto& table = opt.trace ? kPerLayer : kEndToEnd;
    std::string metrics;
    for (const MetricDef& d : table) {
      const double value = out.samples.has(d.name) ? out.samples.median(d.name) : 0.0;
      std::printf("%-40s %14.6g %s\n", d.name, value, d.unit);
      if (!metrics.empty()) metrics += ", ";
      metrics += json::quoted(d.name) + ": {\"value\": " + json::dump_number(value) +
                 ", \"unit\": " + json::quoted(d.unit) + "}";
    }
    std::printf("%-40s %14llu\n%-40s %14llu\nself-report: %s\n", "attempted",
                static_cast<unsigned long long>(out.tally.attempted), "failed",
                static_cast<unsigned long long>(out.tally.failed), report_path.c_str());
    std::filesystem::remove_all(opt.work_dir);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.tally.attempted),
                static_cast<unsigned long long>(out.tally.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scibench_e2e: %s\n", e.what());
    return 1;
  }
}
