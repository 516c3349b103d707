// Shared plumbing of the end-to-end benchmark: options, per-iteration
// metric samples, the in-memory span recorder behind traced iterations,
// and a few host probes (peak RSS, file sizes, percentiles).
//
// A run is a sequence of iterations, each in a fresh process: build the
// system under test (timed as set-up), run one fixed unit of work (timed
// as wall), check the outputs, and record one value per metric. A fresh
// process per iteration is what a user of these command-line journeys
// pays. On a shared host it also spreads the samples over time and over
// memory placements, so no single process's luck sets the run's medians.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tools_dir;  ///< holds scibenchd and scibench_worker
  std::string work_dir;   ///< scratch files of this run (created and removed by main)
  std::string out_dir;    ///< BENCH report and Chrome trace land here
};

[[nodiscard]] double now_s() noexcept;

/// Values per metric; an iteration adds one value per metric, and a run
/// reports medians over its iterations.
class Samples {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) != 0; }
  [[nodiscard]] const std::vector<double>& values(const std::string& name) const;
  [[nodiscard]] double median(const std::string& name) const;
  /// Removes the samples of `name` and returns them (empty if none).
  [[nodiscard]] std::vector<double> take(const std::string& name);
  [[nodiscard]] const std::map<std::string, std::vector<double>>& all() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Operations attempted and failed; a failed output check counts as a
/// failed operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void op(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  void ops(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

/// What one iteration (or, merged, a whole run) produced.
struct Outcome {
  Tally tally;
  Samples samples;
};

/// A span around one call into a library layer. `parent` links a span to
/// the span that caused it, also across threads (a runner worker's cell
/// span points at the runner span on the main thread).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root
  const char* name = "";     ///< string literal
  const char* layer = "";    ///< string literal
  int tid = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span store, written out once at exit as Chrome trace JSON.
/// Thread-safe: runner workers and service clients record concurrently.
class Tracer {
 public:
  [[nodiscard]] std::uint64_t begin();  ///< reserves a span id
  void record(std::uint64_t id, std::uint64_t parent, const char* name, const char* layer,
              double start_s, double end_s);
  /// Records a finished span under a fresh id and returns that id.
  std::uint64_t add(std::uint64_t parent, const char* name, const char* layer,
                    double start_s, double end_s);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Seconds spent in spans of `layer` that no child span covers.
  [[nodiscard]] double self_seconds(const std::string& layer) const;
  /// Writes every span through obs::TraceSink, one track per thread.
  void save(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Times its scope into `tracer` (a null tracer records nothing).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint64_t parent, const char* name, const char* layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  const char* name_;
  const char* layer_;
  double start_s_;
};

/// Layers whose journey calls a traced iteration wraps in spans; every
/// workload reports the self time of each, zero for layers its journey
/// does not call. Probe calls made after the journey (re-issued QR fits,
/// direct worker round trips, codec calls, the reference run) are timed
/// without spans.
[[nodiscard]] const std::vector<const char*>& layers();

/// Records the simulator's exact work counts (sim.events,
/// sim.net_messages, sim.noise_draws) from an obs counter delta.
void add_sim_counters(Samples& samples,
                      const std::vector<std::pair<std::string, std::uint64_t>>& delta);

/// Replaces the `job_ms` samples of a run, to which each untraced
/// iteration added the latencies of the same jobs in the same order, by
/// `job_p50_ms` and `job_p95_ms` over the jobs of each job's median
/// across the iterations. A burst of host contention then has to slow
/// the same job in half the iterations to reach the tail, instead of
/// setting the p95 of every iteration it overlaps.
void add_per_job_percentiles(Samples& samples);

/// VmHWM of `pid` (0: this process) in MiB; NaN when unreadable.
[[nodiscard]] double peak_rss_mb(int pid = 0);
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] bool files_equal(const std::string& a, const std::string& b);

/// One iteration of each workload. `tracer` is null on untraced
/// iterations; the iteration adds `wall_s` (untraced) or `traced_wall_s`
/// (traced), `setup_s`, `peak_rss_mb`, its `job_ms` job latencies
/// (untraced only) and, when traced, its per-layer metrics.
void study_iteration(const Options& opt, Tracer* tracer, Outcome& out);
void gate_iteration(const Options& opt, Tracer* tracer, Outcome& out);
void service_iteration(const Options& opt, Tracer* tracer, Outcome& out);

}  // namespace e2e
