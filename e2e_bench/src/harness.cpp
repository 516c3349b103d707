#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "stats/descriptive.hpp"

namespace e2e {

namespace {

/// Small dense thread ids for trace tracks (first thread to record = 0).
int thread_track() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

}  // namespace

double now_s() noexcept {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

const std::vector<double>& Samples::values(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::out_of_range("no samples for metric " + name);
  return it->second;
}

double Samples::median(const std::string& name) const {
  return sci::stats::median(values(name));
}

std::vector<double> Samples::take(const std::string& name) {
  const auto it = values_.find(name);
  if (it == values_.end()) return {};
  std::vector<double> values = std::move(it->second);
  values_.erase(it);
  return values;
}

std::uint64_t Tracer::begin() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, std::uint64_t parent, const char* name,
                    const char* layer, double start_s, double end_s) {
  Span span{id, parent, name, layer, thread_track(), start_s, end_s};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint64_t Tracer::add(std::uint64_t parent, const char* name, const char* layer,
                          double start_s, double end_s) {
  const std::uint64_t id = begin();
  record(id, parent, name, layer, start_s, end_s);
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::self_seconds(const std::string& layer) const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  double total = 0.0;
  for (const Span& s : all) {
    if (layer != s.layer) continue;
    // Union of the children's intervals clipped to this span: children on
    // several worker threads overlap one another.
    std::vector<std::pair<double, double>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const double lo = std::max(c->start_s, s.start_s);
        const double hi = std::min(c->end_s, s.end_s);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    total += (s.end_s - s.start_s) - covered;
  }
  return total;
}

void Tracer::save(const std::string& path) const {
  const std::vector<Span> all = spans();
  sci::obs::TraceSink sink;
  sink.set_process_name("scibench_e2e");
  double t0 = all.empty() ? 0.0 : all.front().start_s;
  for (const Span& s : all) t0 = std::min(t0, s.start_s);
  for (const Span& s : all) {
    sink.complete(s.tid, s.name, s.layer, s.start_s - t0, s.end_s - s.start_s,
                  {{"id", s.id}, {"parent", s.parent}});
    sink.set_track_name(s.tid, "thread " + std::to_string(s.tid));
  }
  sink.save(path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::uint64_t parent, const char* name,
                       const char* layer)
    : tracer_(tracer), parent_(parent), name_(name), layer_(layer), start_s_(now_s()) {
  if (tracer_ != nullptr) id_ = tracer_->begin();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->record(id_, parent_, name_, layer_, start_s_, now_s());
}

const std::vector<const char*>& layers() {
  static const std::vector<const char*> kLayers = {
      "sim", "exec.runner", "core", "exec.ingest", "stats", "ci", "exec.service"};
  return kLayers;
}

void add_sim_counters(Samples& samples,
                      const std::vector<std::pair<std::string, std::uint64_t>>& delta) {
  namespace keys = sci::obs::keys;
  const auto add = [&](const char* name, const char* key) {
    samples.add(name, static_cast<double>(sci::obs::snapshot_value(delta, key)));
  };
  add("sim.events", keys::kEngineEvents);
  add("sim.net_messages", keys::kNetMessages);
  add("sim.noise_draws", keys::kNoiseDraws);
}

void add_per_job_percentiles(Samples& samples) {
  const std::vector<double> all = samples.take("job_ms");
  const std::size_t iterations = samples.values("wall_s").size();
  if (all.empty() || all.size() % iterations != 0) {
    throw std::runtime_error("job_ms: the iterations ran different numbers of jobs");
  }
  const std::size_t jobs = all.size() / iterations;
  std::vector<double> job_median(jobs);
  std::vector<double> across(iterations);
  for (std::size_t k = 0; k < jobs; ++k) {
    for (std::size_t i = 0; i < iterations; ++i) across[i] = all[i * jobs + k];
    job_median[k] = percentile(across, 0.5);
  }
  samples.add("job_p50_ms", percentile(job_median, 0.5));
  samples.add("job_p95_ms", percentile(job_median, 0.95));
}

double peak_rss_mb(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                     : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is ? static_cast<std::uint64_t>(is.tellg()) : 0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sci::stats::quantile(values, p);
}

bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  return std::equal(std::istreambuf_iterator<char>(fa), std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb), std::istreambuf_iterator<char>());
}

}  // namespace e2e
