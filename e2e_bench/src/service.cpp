// `service`: the scibench_submit -> scibenchd journey.
//
// One iteration starts `scibenchd --workers 2` as shipped, then one
// client with 2 connections submits a seeded stream of 200 small
// pingpong campaigns in a closed loop (each connection sends its next
// job when the previous one is done). A job is 15 cells of 200 samples.
// About half of each job's cells repeat a cell an earlier job submitted,
// so the daemon's cross-job dedupe path and its worker path both carry
// load. Jobs serialize in the daemon's queue, so a 2-client queue wait
// is real. Simulator and QR work are small here; exec.service,
// exec.process_pool, exec.wire and the queue dominate. The client, the
// daemon and its workers share one CPU (pin_to_one_cpu), so the job
// latencies measure the CPU cost of the service path rather than the
// host's vCPU scheduling.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/interrupt.hpp"
#include "exec/process_pool.hpp"
#include "exec/runner.hpp"
#include "exec/service.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "harness.hpp"
#include "obs/counters.hpp"
#include "obs/daemon_metrics.hpp"
#include "obs/json.hpp"
#include "rng/xoshiro.hpp"
#include "timed_backend.hpp"

extern char** environ;

namespace exec = sci::exec;
namespace json = sci::obs::json;

namespace e2e {

namespace {

constexpr std::size_t kJobs = 200;
constexpr std::size_t kCellsPerJob = 15;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPoolProbeCells = 200;
constexpr double kReadyTimeout_s = 30.0;

struct Job {
  exec::CampaignSpec spec;
  std::string envelope;  ///< the wire line the client sends
};

/// The seeded job stream. Every job shares one campaign seed, so cell i
/// of any job has the same derived seed; its level is the hot value of
/// position i with probability 1/2 (a repeat of an earlier job's cell
/// once some job has used it) and otherwise a message size no other cell
/// in the stream uses.
std::vector<Job> make_jobs(std::uint64_t seed, const exec::SimBackendOptions& backend) {
  std::uint64_t g = seed;
  const std::uint64_t campaign_seed = sci::rng::splitmix64_next(g);
  std::set<std::size_t> used;
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < kJobs; ++k) {
    Job job;
    job.spec.name = "e2e_service_" + std::to_string(k);
    job.spec.description = "closed-loop service job";
    job.spec.seed = campaign_seed;
    std::vector<std::string> sizes;
    for (std::size_t i = 0; i < kCellsPerJob; ++i) {
      if (sci::rng::splitmix64_next(g) & 1) {
        sizes.push_back(std::to_string(64 * (i + 1)));  // hot: even
        continue;
      }
      std::size_t fresh = 0;
      do {  // cold: odd, never repeated
        fresh = 9 + 2 * (sci::rng::splitmix64_next(g) % 16000);
      } while (!used.insert(fresh).second);
      sizes.push_back(std::to_string(fresh));
    }
    job.spec.factors.push_back({"message_bytes", std::move(sizes)});
    job.envelope = exec::wire::campaign_to_json(job.spec, backend);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Client-side view of one job, timed by event arrival.
struct JobTimes {
  double submit_s = 0.0;
  double started_s = 0.0;
  double first_cell_s = 0.0;
  double done_s = 0.0;
  std::size_t fresh = 0;
  std::size_t deduped = 0;
  bool ok = false;  ///< reached "done" with 0 failed cells
};

JobTimes submit(const std::string& socket, const Job& job, const std::string& samples_csv) {
  JobTimes jt;
  jt.submit_s = now_s();
  std::string header = "{\"op\": \"submit\"";
  if (!samples_csv.empty()) header += ", \"samples_csv\": " + json::quoted(samples_csv);
  header += "}";
  const int fd = exec::connect_unix(socket);
  if (!exec::write_line_fd(fd, header) || !exec::write_line_fd(fd, job.envelope)) {
    ::close(fd);
    return jt;
  }
  std::string line;
  while (exec::read_line_fd(fd, line)) {
    const double t = now_s();
    const json::Value event = json::parse(line);
    const std::string& kind = event.at("event").as_string();
    if (kind == "started") {
      jt.started_s = t;
    } else if (kind == "cell") {
      if (jt.first_cell_s == 0.0) jt.first_cell_s = t;
      (event.at("deduped").boolean ? jt.deduped : jt.fresh) += 1;
    } else if (kind == "done") {
      jt.done_s = t;
      jt.ok = event.at("failed").as_size() == 0 && event.at("interrupted").as_size() == 0 &&
              jt.fresh + jt.deduped == kCellsPerJob;
      break;
    } else if (kind != "queued" && kind != "progress") {
      break;  // rejected / error / cancelled
    }
  }
  ::close(fd);
  return jt;
}

/// `scibenchd` as a child process: started in the constructor, stopped
/// with SIGTERM (its documented drain path) by stop(), killed by the
/// destructor if still running.
class Daemon {
 public:
  Daemon(const std::string& daemon_bin, const std::string& worker_bin,
         const std::string& socket, const std::string& metrics) {
    int err_pipe[2];
    if (::pipe2(err_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    err_fd_ = err_pipe[0];
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
    const std::string workers = std::to_string(kWorkers);
    std::vector<std::string> args = {daemon_bin,   "--socket",     socket,  "--workers",
                                     workers,      "--worker-bin", worker_bin,
                                     "--metrics",  metrics};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, daemon_bin.c_str(), &actions, nullptr, argv.data(),
                                 environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(err_pipe[1]);
    if (rc != 0) {
      ::close(err_fd_);
      throw std::runtime_error("cannot start " + daemon_bin + ": " + std::strerror(rc));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    ::close(err_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon has announced its socket and accepts a
  /// connection on it. The announcement follows ProcessPool's
  /// constructor, whose posix_spawn of each worker returns only after the
  /// worker has exec'd, so both workers run scibench_worker by then.
  void wait_ready(const std::string& socket) {
    const double deadline = now_s() + kReadyTimeout_s;
    std::string err;
    while (err.find("listening on") == std::string::npos) {
      pollfd pfd{err_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 1000) == 0) {
        if (now_s() > deadline) {
          throw std::runtime_error("scibenchd did not start listening");
        }
        continue;
      }
      char buf[256];
      const ssize_t n = ::read(err_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("scibenchd exited before listening: " + err);
      err.append(buf, static_cast<std::size_t>(n));
    }
    ::close(exec::connect_unix(socket));
  }

  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// SIGTERM, then reaps; returns the wait status.
  int stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
};

double ms(double s) { return s * 1e3; }

/// Pins the calling thread to the highest-numbered CPU it may use. The
/// client threads, the daemon and its workers started afterwards inherit
/// the mask, so every handoff of the journey is a context switch on one
/// CPU. Spread over idle vCPUs of a shared host, each handoff instead
/// waits for the hypervisor to schedule the woken vCPU, and that wait
/// (counted as steal time) moved the job latencies by 2x between runs.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error(std::string("sched_getaffinity: ") + std::strerror(errno));
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
    }
    return;
  }
}

}  // namespace

void service_iteration(const Options& opt, Tracer* t, Outcome& out) {
  pin_to_one_cpu();
  exec::SimBackendOptions backend;
  backend.kernel = exec::SimKernel::kPingPong;
  backend.samples = 200;
  backend.scale = 1e6;
  backend.unit = "us";
  const std::vector<Job> jobs = make_jobs(opt.seed, backend);
  // Judged against an in-process run: one job from the second half, so
  // some of its cells come from the dedupe cache.
  const std::size_t sampled = kJobs / 2 + static_cast<std::size_t>(opt.seed % (kJobs / 2));

  const std::string worker_bin = opt.tools_dir + "/scibench_worker";
  const std::string socket = opt.work_dir + "/scibenchd.sock";
  const std::string metrics = opt.work_dir + "/daemon_metrics.json";
  const std::string daemon_csv = opt.work_dir + "/daemon_samples.csv";
  const std::string local_csv = opt.work_dir + "/local_samples.csv";
  for (const std::string& f : {socket, metrics, daemon_csv, local_csv}) {
    std::remove(f.c_str());
  }

  const double s0 = now_s();
  Daemon daemon(opt.tools_dir + "/scibenchd", worker_bin, socket, metrics);
  daemon.wait_ready(socket);
  out.samples.add("setup_s", now_s() - s0);

  std::vector<JobTimes> times(kJobs);
  std::atomic<std::size_t> next{0};
  const double w0 = now_s();
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (std::size_t k; (k = next.fetch_add(1)) < kJobs;) {
          try {
            times[k] = submit(socket, jobs[k], k == sampled ? daemon_csv : std::string());
          } catch (const std::exception& e) {
            std::fprintf(stderr, "service: job %zu: %s\n", k, e.what());
          }
          if (t != nullptr && times[k].done_s > 0.0) {
            t->add(0, "exec.service.job", "exec.service", times[k].submit_s,
                   times[k].done_s);
          }
        }
      });
    }
  }
  const double w1 = now_s();
  out.samples.add("peak_rss_mb", peak_rss_mb(daemon.pid()));
  const int status = daemon.stop();
  const bool drained =
      WIFEXITED(status) && WEXITSTATUS(status) == exec::kInterruptedExitCode;

  // Output checks: every job done without failed cells; the daemon's
  // samples CSV of the sampled job is byte-equal to an in-process run of
  // the same envelope (as `scibench_submit --local` runs it).
  std::size_t bad = 0;
  std::size_t fresh = 0;
  std::size_t deduped = 0;
  for (std::size_t k = 0; k < kJobs; ++k) {
    const JobTimes& jt = times[k];
    if (!jt.ok) {
      ++bad;
      std::fprintf(stderr, "service: job %zu did not finish cleanly (%zu + %zu cells)\n", k,
                   jt.fresh, jt.deduped);
    }
    fresh += jt.fresh;
    deduped += jt.deduped;
  }
  out.tally.ops(kJobs, bad);
  const auto envelope = exec::wire::parse_campaign_json(jobs[sampled].envelope);
  exec::SimBackend sim(envelope.backend);
  TimedBackend local(sim, nullptr);
  exec::CampaignRunner runner(local, exec::Campaign(envelope.spec));
  const auto counters0 = sci::obs::CounterRegistry::instance().snapshot();
  const double r0 = now_s();
  const exec::CampaignResult result = runner.run();
  const double r1 = now_s();
  const auto counters =
      sci::obs::snapshot_delta(counters0, sci::obs::CounterRegistry::instance().snapshot());
  result.samples_dataset().save_csv(local_csv);
  const double r2 = now_s();
  const bool same_csv = files_equal(daemon_csv, local_csv);
  if (!drained || !same_csv) {
    std::fprintf(stderr,
                 "service: daemon wait status %d (drain exit is 3), sampled job CSV %s\n",
                 status, same_csv ? "equal" : "differs");
  }
  out.tally.op(drained && result.failed == 0 && same_csv);

  if (t == nullptr) {
    out.samples.add("wall_s", w1 - w0);
    for (const auto& jt : times) out.samples.add("job_ms", ms(jt.done_s - jt.submit_s));
    return;
  }
  out.samples.add("traced_wall_s", w1 - w0);
  std::vector<double> queue_wait, first_cell, run;
  for (const auto& jt : times) {
    queue_wait.push_back(ms(jt.started_s - jt.submit_s));
    first_cell.push_back(ms(jt.first_cell_s - jt.started_s));
    run.push_back(ms(jt.done_s - jt.started_s));
  }
  out.samples.add("exec.service.queue_wait_ms.p50", percentile(queue_wait, 0.5));
  out.samples.add("exec.service.queue_wait_ms.p95", percentile(queue_wait, 0.95));
  out.samples.add("exec.service.first_cell_ms.p50", percentile(first_cell, 0.5));
  out.samples.add("exec.service.run_ms.p50", percentile(run, 0.5));
  out.samples.add("exec.service.run_ms.p95", percentile(run, 0.95));
  out.samples.add("exec.service.cells_fresh", static_cast<double>(fresh));
  out.samples.add("exec.service.cells_deduped", static_cast<double>(deduped));
  out.samples.add("exec.service.dedupe_ratio",
                  static_cast<double>(deduped) / static_cast<double>(fresh + deduped));
  // The daemon's own count (ROADMAP open item 4: it also counts deduped
  // cells as executed), reported beside cells_fresh and never gated.
  {
    std::ifstream is(metrics, std::ios::binary);
    std::stringstream text;
    text << is.rdbuf();
    const auto reported = sci::obs::parse_daemon_metrics(text.str()).cells_executed;
    out.samples.add("exec.service.cells_executed_reported", static_cast<double>(reported));
  }

  // The in-process reference run is the simulator/runner view here.
  double busy = 0.0;
  std::vector<double> cell_ms;
  for (double s : local.take_cell_seconds()) {
    busy += s;
    cell_ms.push_back(ms(s));
  }
  const double threads = std::max(1u, std::thread::hardware_concurrency());
  out.samples.add("sim.cell_ms.p50", percentile(cell_ms, 0.5));
  out.samples.add("sim.cell_ms.p99", percentile(cell_ms, 0.99));
  out.samples.add("sim.busy_s", busy);
  add_sim_counters(out.samples, counters);
  out.samples.add("exec.runner_s", r1 - r0);
  out.samples.add("exec.runner_wait_frac", 1.0 - busy / ((r1 - r0) * threads));
  out.samples.add("core.csv_write_s", r2 - r1);
  out.samples.add("core.csv_bytes", static_cast<double>(file_bytes(local_csv)));

  // Worker round trips and the cell codec, called directly on the
  // stream's first cells.
  exec::ProcessPoolOptions popts;
  popts.worker_path = worker_bin;
  popts.workers = kWorkers;
  exec::ProcessPool pool(popts);
  std::vector<double> rtt_ms, encode_us, decode_us;
  for (std::size_t i = 0; i < kPoolProbeCells; ++i) {
    const exec::Campaign campaign(jobs[i / kCellsPerJob].spec);
    const exec::Config config = campaign.config(i % kCellsPerJob);
    const std::uint64_t seed = campaign.seed_for(config, 0);
    const double p0 = now_s();
    const exec::CellResult cell = pool.run(backend, config, seed);
    const double p1 = now_s();
    const std::string line = exec::wire::cell_result_to_json(cell);
    const double p2 = now_s();
    const exec::CellResult back = exec::wire::parse_cell_result_json(line);
    const double p3 = now_s();
    rtt_ms.push_back(ms(p1 - p0));
    encode_us.push_back((p2 - p1) * 1e6);
    decode_us.push_back((p3 - p2) * 1e6);
    out.tally.op(cell.error.empty() && back.samples == cell.samples);
  }
  out.samples.add("exec.process_pool.rtt_ms.p50", percentile(rtt_ms, 0.5));
  out.samples.add("exec.process_pool.rtt_ms.p95", percentile(rtt_ms, 0.95));
  out.samples.add("exec.wire.cell_encode_us", percentile(encode_us, 0.5));
  out.samples.add("exec.wire.cell_decode_us", percentile(decode_us, 0.5));
}

}  // namespace e2e
