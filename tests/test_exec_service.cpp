// End-to-end coverage for the campaign service stack: wire-format
// round trips, process-pool crash isolation, and the PR invariant --
// campaigns run through worker processes (any count, even across
// worker deaths) produce CSVs byte-identical to an in-process
// CampaignRunner. Plus the service-level queue/dedupe semantics and
// the cooperative interrupt drain (exec/interrupt.hpp).
//
// SCIBENCH_WORKER_PATH is injected by tests/CMakeLists.txt as the
// build-tree path of the scibench_worker binary.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/interrupt.hpp"
#include "exec/process_pool.hpp"
#include "exec/runner.hpp"
#include "exec/service.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"

namespace sci::exec {
namespace {

std::string csv_of(const core::Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

ProcessPoolOptions pool_options(std::size_t workers, std::size_t crash_retries = 2) {
  ProcessPoolOptions popts;
  popts.worker_path = SCIBENCH_WORKER_PATH;
  popts.workers = workers;
  popts.crash_retries = crash_retries;
  return popts;
}

SimBackendOptions small_sim_options() {
  SimBackendOptions opts;
  opts.kernel = SimKernel::kPingPong;
  opts.samples = 24;
  opts.warmup = 2;
  opts.scale = 1e6;
  opts.unit = "us";
  return opts;
}

CampaignSpec grid_spec(const std::string& name = "svc_grid") {
  CampaignSpec spec;
  spec.name = name;
  spec.base.synchronization_method = "none (pingpong)";
  spec.base.environment["site"] = "unit test";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.factors.push_back({"message_bytes", {"64", "4096"}});
  spec.replications = 2;
  spec.seed = 4242;
  return spec;
}

struct RunBytes {
  std::string samples;
  std::string summary;
};

RunBytes run_in_process(const CampaignSpec& spec, const SimBackendOptions& opts,
                        std::size_t workers) {
  SimBackend backend(opts);
  CampaignRunnerOptions ropts;
  ropts.workers = workers;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();
  return {csv_of(result.samples_dataset()), csv_of(result.summary_dataset())};
}

// ------------------------------------------------------------- wire

TEST(Wire, HexU64AndDoubleRoundTrip) {
  const std::uint64_t seeds[] = {0ULL, 1ULL, 0x5c1b3ac4d2e9f107ULL,
                                 0xffffffffffffffffULL};
  for (const std::uint64_t s : seeds) {
    const std::string hex = wire::hex_u64(s);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(wire::parse_hex_u64(hex), s);
  }
  const double values[] = {0.0, -0.0, 1.5, -3.25e-9, 6.02214076e23};
  for (const double v : values) {
    EXPECT_EQ(wire::parse_hex_double(wire::hex_double(v)), v);
  }
  // NaN payloads survive bit-exactly (the reason samples travel as hex).
  const double nan = std::nan("0x5ca1ab1e");
  const std::string hex = wire::hex_double(nan);
  EXPECT_EQ(wire::hex_double(wire::parse_hex_double(hex)), hex);
  EXPECT_THROW((void)wire::parse_hex_u64("not-hex-not-16"), std::runtime_error);
}

TEST(Wire, OnlyLowercaseHexDigitsAreAccepted) {
  // Every byte value at every position: the sample decoder's digit
  // table must accept exactly [0-9a-f].
  for (std::size_t at = 0; at < 16; ++at) {
    for (int byte = 0; byte < 256; ++byte) {
      std::string text(16, '0');
      text[at] = static_cast<char>(byte);
      const bool digit = (byte >= '0' && byte <= '9') || (byte >= 'a' && byte <= 'f');
      if (digit) {
        const auto value = static_cast<std::uint64_t>(byte <= '9' ? byte - '0' : byte - 'a' + 10);
        EXPECT_EQ(wire::parse_hex_u64(text), value << (4 * (15 - at)));
      } else {
        EXPECT_THROW((void)wire::parse_hex_u64(text), std::runtime_error)
            << "byte " << byte << " at " << at;
      }
    }
  }
  EXPECT_THROW((void)wire::parse_hex_u64("0123456789abcde"), std::runtime_error);
}

TEST(Wire, CampaignEnvelopeRoundTripsByteIdentically) {
  CampaignSpec spec = grid_spec("wire_grid");
  spec.description = "round-trip fixture";
  spec.stopping = StoppingPolicy::sequential_ci(0.03, 3, 9);
  const SimBackendOptions backend = small_sim_options();

  const std::string line = wire::campaign_to_json(spec, backend);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "wire lines must be one line";

  const wire::CampaignEnvelope envelope = wire::parse_campaign_json(line);
  EXPECT_EQ(wire::campaign_to_json(envelope.spec, envelope.backend), line);

  // The parse rebuilds the identical campaign: same grid, same seeds.
  const Campaign a{spec};
  const Campaign b{envelope.spec};
  ASSERT_EQ(a.config_count(), b.config_count());
  for (std::size_t i = 0; i < a.config_count(); ++i) {
    EXPECT_EQ(a.config(i).to_string(), b.config(i).to_string());
    EXPECT_EQ(a.seed_for(a.config(i), 1), b.seed_for(b.config(i), 1));
  }
  EXPECT_EQ(envelope.spec.stopping.describe(), spec.stopping.describe());
  EXPECT_EQ(envelope.backend.unit, backend.unit);
}

TEST(Wire, SeedOverrideIsNotSerializable) {
  CampaignSpec spec = grid_spec();
  spec.seed_override = [](const Config&, std::size_t) { return 7ULL; };
  EXPECT_THROW((void)wire::campaign_to_json(spec, {}), std::invalid_argument);
}

TEST(Wire, JobAndCellResultRoundTrip) {
  const Campaign campaign{grid_spec()};
  const Config config = campaign.config(2);
  const std::uint64_t seed = campaign.seed_for(config, 1);
  const std::string job_line = wire::job_to_json(small_sim_options(), config, seed);
  const wire::JobSpec job = wire::parse_job_json(job_line);
  EXPECT_EQ(job.seed, seed);
  EXPECT_EQ(job.config.index, config.index);
  EXPECT_EQ(job.config.to_string(), config.to_string());
  EXPECT_EQ(wire::job_to_json(job.backend, job.config, job.seed), job_line);

  CellResult result;
  result.samples = {1.5, -0.0, 3.0e-7};
  result.unit = "us";
  result.stop_reason = "fixed";
  result.warmup_discarded = 2;
  result.error = "";
  const std::string cell_line = wire::cell_result_to_json(result);
  const CellResult parsed = wire::parse_cell_result_json(cell_line);
  EXPECT_EQ(parsed.samples, result.samples);
  EXPECT_EQ(parsed.unit, "us");
  EXPECT_EQ(parsed.warmup_discarded, 2u);
  EXPECT_EQ(wire::cell_result_to_json(parsed), cell_line);
}

// ----------------------------------------------- pool byte-identity

TEST(ProcessPoolBackend, FixedCampaignMatchesInProcessByteForByte) {
  const CampaignSpec spec = grid_spec();
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);

  for (const std::size_t workers : {2u, 3u}) {
    ProcessPool pool(pool_options(workers));
    PoolBackend backend(pool, opts);
    CampaignRunnerOptions ropts;
    ropts.workers = workers;
    CampaignRunner runner(backend, Campaign(spec), ropts);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(csv_of(result.samples_dataset()), want.samples)
        << "worker processes changed result bytes (workers=" << workers << ")";
    EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
  }
}

TEST(ProcessPoolBackend, SequentialCampaignMatchesInProcessByteForByte) {
  CampaignSpec spec = grid_spec("svc_seq");
  spec.stopping = StoppingPolicy::sequential_ci(0.05, 3, 8);
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);

  ProcessPool pool(pool_options(2));
  PoolBackend backend(pool, opts);
  CampaignRunnerOptions ropts;
  ropts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();
  EXPECT_TRUE(result.sequential);
  EXPECT_EQ(csv_of(result.samples_dataset()), want.samples);
  EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
}

TEST(ProcessPoolBackend, KilledWorkerRetriesSameSeedAndKeepsBytes) {
  // The kill_once drill: exactly one worker unlinks the sentinel and
  // dies mid-cell (emulating an external SIGKILL). The pool re-runs the
  // SAME (config, seed) on a fresh worker, so the campaign finishes
  // with zero failed cells and bytes identical to an undisturbed
  // in-process run (SimBackend ignores the worker_fault factor).
  CampaignSpec spec = grid_spec("svc_kill");
  spec.factors.push_back({"worker_fault", {"kill_once"}});
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);

  const std::string sentinel = temp_path("kill_once.sentinel");
  { std::ofstream touch(sentinel); }
  ASSERT_EQ(::setenv("SCIBENCH_WORKER_KILL_FILE", sentinel.c_str(), 1), 0);

  ProcessPool pool(pool_options(2));
  PoolBackend backend(pool, opts);
  CampaignRunnerOptions ropts;
  ropts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();
  ::unsetenv("SCIBENCH_WORKER_KILL_FILE");

  EXPECT_EQ(pool.workers_crashed(), 1u);
  EXPECT_GE(pool.workers_spawned(), 3u);  // fleet of 2 + one respawn
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(csv_of(result.samples_dataset()), want.samples)
      << "a killed worker must not change result bytes";
  EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
}

TEST(ProcessPoolBackend, AbortingCellIsContainedAsFailedCell) {
  // A deterministic abort() kills every worker it touches; the pool
  // gives up after crash_retries, the runner's containment records a
  // failed cell, and every other cell still completes -- the property
  // an in-process backend could never provide.
  CampaignSpec spec;
  spec.name = "svc_abort";
  spec.factors.push_back({"message_bytes", {"64"}});
  spec.factors.push_back({"worker_fault", {"none", "abort"}});
  spec.replications = 2;
  spec.seed = 77;

  ProcessPool pool(pool_options(2, /*crash_retries=*/1));
  PoolBackend backend(pool, small_sim_options());
  CampaignRunnerOptions ropts;
  ropts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();

  EXPECT_EQ(result.failed, 2u);  // both replications of the abort column
  EXPECT_GE(pool.workers_crashed(), 2u);
  std::size_t ok_cells = 0;
  for (const CampaignCell& cell : result.cells) {
    const std::string& fault = cell.config.level("worker_fault");
    if (fault == "abort") {
      EXPECT_FALSE(cell.result.error.empty());
      EXPECT_TRUE(cell.result.samples.empty());
    } else {
      EXPECT_TRUE(cell.result.error.empty());
      EXPECT_FALSE(cell.result.samples.empty());
      ++ok_cells;
    }
  }
  EXPECT_EQ(ok_cells, 2u);
}

// ------------------------------------------------------ the service

/// Collects the event stream of one submission.
class CollectSink : public ServiceEventSink {
 public:
  void on_event(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
  }
  [[nodiscard]] std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  [[nodiscard]] bool saw(const std::string& needle) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

TEST(CampaignService, DedupesIdenticalSubmissionsAcrossClients) {
  const CampaignSpec spec = grid_spec("svc_dedupe");
  const SimBackendOptions opts = small_sim_options();

  ProcessPool pool(pool_options(2));
  CampaignService service(pool);

  Submission first;
  first.spec = spec;
  first.backend = opts;
  first.samples_csv = temp_path("svc_dedupe_a.csv");
  Submission second = first;
  second.samples_csv = temp_path("svc_dedupe_b.csv");

  CollectSink sink_a;
  CollectSink sink_b;
  const std::uint64_t job_a = service.submit(first, &sink_a);
  const std::uint64_t job_b = service.submit(second, &sink_b);
  const JobOutcome out_a = service.wait(job_a);
  const JobOutcome out_b = service.wait(job_b);

  ASSERT_TRUE(out_a.ran) << out_a.error;
  ASSERT_TRUE(out_b.ran) << out_b.error;
  EXPECT_EQ(out_a.cells, 8u);
  EXPECT_EQ(out_a.deduped, 0u);
  EXPECT_EQ(out_b.deduped, out_b.cells)
      << "second client's cells must come from the shared cache";

  const std::string csv_a = slurp(first.samples_csv);
  const std::string csv_b = slurp(second.samples_csv);
  EXPECT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, csv_b) << "dedupe must serve byte-identical results";
  EXPECT_EQ(csv_a, run_in_process(spec, opts, 2).samples);

  EXPECT_TRUE(sink_a.saw("\"event\": \"queued\""));
  EXPECT_TRUE(sink_a.saw("\"event\": \"done\""));
  EXPECT_TRUE(sink_b.saw("\"deduped\": true"));

  // Only cells that reached a worker count as executed: every requested
  // cell is either executed or deduped, never both.
  EXPECT_EQ(out_a.executed, out_a.cells);
  EXPECT_EQ(out_b.executed, 0u);
  const obs::DaemonMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.jobs_submitted, 2u);
  EXPECT_EQ(metrics.jobs_completed, 2u);
  EXPECT_EQ(metrics.cells_deduped, out_b.deduped);
  EXPECT_EQ(metrics.cells_executed + metrics.cells_deduped, out_a.cells + out_b.cells);
  EXPECT_GE(metrics.workers_spawned, 2u);
}

/// Counts on_event calls that overlap another call on the same sink and
/// records (job, event) in arrival order. The sleep widens the window a
/// racing caller would have to hit.
class OverlapSink : public ServiceEventSink {
 public:
  void on_event(const std::string& line) override {
    if (in_call_.fetch_add(1) != 0) overlaps_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      events_.emplace_back(field(line, "\"job\": "), field(line, "\"event\": \""));
    }
    in_call_.fetch_sub(1);
  }
  [[nodiscard]] std::size_t overlaps() const { return overlaps_.load(); }
  /// Event names of `job`, in the order the sink received them.
  [[nodiscard]] std::vector<std::string> events_of(std::uint64_t job) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (const auto& [id, event] : events_) {
      if (id == std::to_string(job)) out.push_back(event);
    }
    return out;
  }

 private:
  /// The token after `key`, up to the next ',', '"' or '}'.
  static std::string field(const std::string& line, const std::string& key) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return {};
    const std::size_t from = at + key.size();
    return line.substr(from, line.find_first_of(",\"}", from) - from);
  }

  std::atomic<int> in_call_{0};
  std::atomic<std::size_t> overlaps_{0};
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::string>> events_;
};

TEST(CampaignService, SinkCallsNeverOverlapAndQueuedComesFirst) {
  // Several clients submit concurrently, each several jobs through one
  // sink, while the service thread streams the running job's events:
  // no sink may see two calls at once, and every job's stream must
  // open with "queued" and close with "done".
  ProcessPool pool(pool_options(2));
  CampaignService service(pool);
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kJobsPerClient = 4;
  std::vector<OverlapSink> sinks(kClients);
  std::vector<std::vector<std::uint64_t>> ids(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t j = 0; j < kJobsPerClient; ++j) {
        Submission sub;
        sub.spec = grid_spec("svc_sink_" + std::to_string(j));
        sub.backend = small_sim_options();
        ids[c].push_back(service.submit(sub, &sinks[c]));
      }
      for (const std::uint64_t id : ids[c]) (void)service.wait(id);
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(sinks[c].overlaps(), 0u) << "client " << c;
    for (const std::uint64_t id : ids[c]) {
      const auto events = sinks[c].events_of(id);
      ASSERT_GE(events.size(), 3u) << "job " << id;
      EXPECT_EQ(events.front(), "queued") << "job " << id;
      EXPECT_EQ(events[1], "started") << "job " << id;
      EXPECT_EQ(events.back(), "done") << "job " << id;
    }
  }
}

TEST(CampaignService, RejectsInvalidSpecWithoutDying) {
  ProcessPool pool(pool_options(1));
  CampaignService service(pool);

  Submission bad;
  bad.spec = grid_spec("");  // empty name: Campaign's ctor throws
  CollectSink sink;
  const JobOutcome out = service.wait(service.submit(bad, &sink));
  EXPECT_FALSE(out.ran);
  EXPECT_FALSE(out.error.empty());
  EXPECT_TRUE(sink.saw("\"event\": \"rejected\""));
  EXPECT_EQ(service.metrics().jobs_rejected, 1u);

  // The service survives and still runs a good job afterwards.
  Submission good;
  good.spec = grid_spec("svc_after_reject");
  good.backend = small_sim_options();
  const JobOutcome ok = service.wait(service.submit(good));
  EXPECT_TRUE(ok.ran) << ok.error;
  EXPECT_EQ(ok.failed, 0u);
}

// -------------------------------------------------------- interrupt

/// Sim wrapper that raises the interrupt flag after `trip` cells.
class TrippingBackend : public Backend {
 public:
  TrippingBackend(SimBackendOptions opts, std::size_t trip, std::atomic<bool>* flag)
      : inner_(std::move(opts)), trip_(trip), flag_(flag) {}
  std::string name() const override { return inner_.name(); }
  std::string describe() const override { return inner_.describe(); }
  CellResult run(const Config& config, std::uint64_t seed) override {
    CellResult r = inner_.run(config, seed);
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 >= trip_) {
      flag_->store(true, std::memory_order_relaxed);
    }
    return r;
  }

 private:
  SimBackend inner_;
  std::size_t trip_;
  std::atomic<bool>* flag_;
  std::atomic<std::size_t> calls_{0};
};

TEST(Interrupt, DrainedCampaignResumesToIdenticalBytes) {
  // A signal mid-campaign (flag raised after 3 cells) drains the
  // remaining cells as interrupted; the journal keeps every finished
  // cell, and a rerun against the same journal completes the campaign
  // with bytes identical to an undisturbed run.
  const CampaignSpec spec = grid_spec("svc_interrupt");
  const SimBackendOptions opts = small_sim_options();
  const RunBytes want = run_in_process(spec, opts, 2);
  const std::string journal = temp_path("svc_interrupt.journal");

  std::atomic<bool> flag{false};
  std::size_t first_pass_executed = 0;
  {
    TrippingBackend backend(opts, 3, &flag);
    CampaignRunnerOptions ropts;
    ropts.workers = 2;
    ropts.journal_path = journal;
    ropts.interrupt = &flag;
    CampaignRunner runner(backend, Campaign(spec), ropts);
    const CampaignResult result = runner.run();
    EXPECT_GT(result.interrupted, 0u);
    EXPECT_LT(result.executed, 8u);
    first_pass_executed = result.executed;
  }
  {
    SimBackend backend(opts);
    CampaignRunnerOptions ropts;
    ropts.workers = 2;
    ropts.journal_path = journal;
    CampaignRunner runner(backend, Campaign(spec), ropts);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.interrupted, 0u);
    EXPECT_EQ(result.journal_hits, first_pass_executed);
    EXPECT_EQ(csv_of(result.samples_dataset()), want.samples)
        << "kill/resume must reproduce the undisturbed bytes";
    EXPECT_EQ(csv_of(result.summary_dataset()), want.summary);
  }
}

TEST(ProcessPoolBackend, ReplyLongerThanTheStdioBufferDecodesBitExactly) {
  // 10^4 samples make a ~200 KB reply line, far past the pipe's stdio
  // buffer, so the pool's line read spans many refills.
  SimBackendOptions opts = small_sim_options();
  opts.samples = 10000;
  const Campaign campaign{grid_spec("svc_long_reply")};
  const Config config = campaign.config(1);
  const std::uint64_t seed = campaign.seed_for(config, 0);
  const CellResult want = SimBackend(opts).run(config, seed);
  ASSERT_EQ(want.samples.size(), 10000u);
  ASSERT_GT(wire::cell_result_to_json(want).size(), std::size_t{BUFSIZ} * 16);

  ProcessPool pool(pool_options(1));
  for (int round = 0; round < 2; ++round) {  // the second reuses the grown buffer
    const CellResult got = pool.run(opts, config, seed);
    EXPECT_EQ(wire::cell_result_to_json(got), wire::cell_result_to_json(want))
        << "round " << round;
  }
  EXPECT_EQ(pool.workers_crashed(), 0u);
}

// ------------------------------------------------- socket transport

TEST(UnixSocket, LineTransportRoundTrips) {
  const std::string path = temp_path("svc_socket.sock");
  const int listen_fd = listen_unix(path);
  ASSERT_GE(listen_fd, 0);

  std::thread server([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::string line;
    while (read_line_fd(fd, line)) {
      ASSERT_TRUE(write_line_fd(fd, "echo:" + line));
    }
    ::close(fd);
  });

  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_line_fd(fd, "{\"op\": \"submit\"}"));
  ASSERT_TRUE(write_line_fd(fd, "second line"));
  std::string reply;
  ASSERT_TRUE(read_line_fd(fd, reply));
  EXPECT_EQ(reply, "echo:{\"op\": \"submit\"}");
  ASSERT_TRUE(read_line_fd(fd, reply));
  EXPECT_EQ(reply, "echo:second line");
  ::close(fd);  // server sees EOF and exits

  server.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

// A connected stream socket pair: the transport under read_line_fd
// without a listener.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      a = fds[0];
      b = fds[1];
    }
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
};

void send_all(int fd, const std::string& bytes) {
  for (std::size_t sent = 0; sent < bytes.size();) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

TEST(UnixSocket, TwoLinesInOneSendAreReadSeparatelyAndNothingPastTheNewline) {
  // scibench_submit's header and envelope often arrive in one segment;
  // the first read must leave the second line in the socket untouched.
  SocketPair pair;
  ASSERT_GE(pair.a, 0);
  send_all(pair.a, "{\"op\": \"submit\"}\n{\"schema\": \"scibench.campaign\"}\n");
  std::string line;
  ASSERT_TRUE(read_line_fd(pair.b, line));
  EXPECT_EQ(line, "{\"op\": \"submit\"}");
  char rest[64] = {};
  const ssize_t n = ::recv(pair.b, rest, sizeof rest, MSG_DONTWAIT);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(rest, static_cast<std::size_t>(n)),
            "{\"schema\": \"scibench.campaign\"}\n");

  send_all(pair.a, "second\nthird\n");
  ASSERT_TRUE(read_line_fd(pair.b, line));
  EXPECT_EQ(line, "second");
  ASSERT_TRUE(read_line_fd(pair.b, line));
  EXPECT_EQ(line, "third");
}

TEST(UnixSocket, LineSentOneBytePerSendIsReassembled) {
  SocketPair pair;
  ASSERT_GE(pair.a, 0);
  const std::string text = "{\"event\": \"cell\", \"n\": 24}";
  std::thread writer([&pair, &text] {
    for (const char c : text + "\n") {
      ASSERT_EQ(::send(pair.a, &c, 1, MSG_NOSIGNAL), 1);
      std::this_thread::yield();
    }
  });
  std::string line;
  EXPECT_TRUE(read_line_fd(pair.b, line));
  writer.join();
  EXPECT_EQ(line, text);
}

TEST(UnixSocket, LinesAroundTheBlockSizeRoundTrip) {
  SocketPair pair;
  ASSERT_GE(pair.a, 0);
  std::vector<std::string> lines;
  for (const std::size_t size :
       {kLineBlockBytes - 1, kLineBlockBytes, kLineBlockBytes + 1, std::size_t{0}}) {
    std::string text(size, 'x');
    for (std::size_t i = 0; i < size; ++i) text[i] = static_cast<char>('a' + i % 26);
    lines.push_back(text);
  }
  std::string stream;
  for (const std::string& text : lines) stream += text + "\n";
  send_all(pair.a, stream);
  for (const std::string& text : lines) {
    std::string line;
    ASSERT_TRUE(read_line_fd(pair.b, line));
    EXPECT_EQ(line, text) << "size " << text.size();
  }
}

TEST(UnixSocket, LineOfExactlyTheCapIsAcceptedAndOneMoreThrows) {
  for (const std::size_t cap : {kLineBlockBytes, std::size_t{10000}}) {
    SocketPair pair;
    ASSERT_GE(pair.a, 0);
    send_all(pair.a, std::string(cap, 'x') + "\n");
    std::string line;
    EXPECT_TRUE(read_line_fd(pair.b, line, cap));
    EXPECT_EQ(line.size(), cap);

    send_all(pair.a, std::string(cap + 1, 'x') + "\n");
    try {
      (void)read_line_fd(pair.b, line, cap);
      ADD_FAILURE() << "a line of cap + 1 bytes was accepted (cap " << cap << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "line longer than " + std::to_string(cap) + " bytes");
    }
  }
}

TEST(UnixSocket, EofMidLineReturnsFalse) {
  SocketPair pair;
  ASSERT_GE(pair.a, 0);
  send_all(pair.a, "complete\npartial");
  ASSERT_EQ(::shutdown(pair.a, SHUT_WR), 0);
  std::string line;
  EXPECT_TRUE(read_line_fd(pair.b, line));
  EXPECT_EQ(line, "complete");
  EXPECT_FALSE(read_line_fd(pair.b, line));
  EXPECT_FALSE(read_line_fd(pair.b, line));
}

/// scibenchd's accept loop, serving `clients` connections in turn.
std::thread serve_in_turn(CampaignService& service, int listen_fd, int clients) {
  return std::thread([&service, listen_fd, clients] {
    for (int i = 0; i < clients; ++i) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      serve_client(service, fd);
    }
  });
}

/// Submits a small grid campaign named `name` to the daemon listening
/// on `path`; true when its event stream ends with "done".
bool submission_runs_to_done(const std::string& path, const std::string& name) {
  const int client = connect_unix(path);
  const std::string campaign = wire::campaign_to_json(grid_spec(name), small_sim_options());
  if (!write_line_fd(client, "{\"op\": \"submit\"}") || !write_line_fd(client, campaign)) {
    ::close(client);
    return false;
  }
  std::string reply;
  bool done = false;
  while (read_line_fd(client, reply)) {
    done = done || reply.find("\"event\": \"done\"") != std::string::npos;
  }
  ::close(client);
  return done;
}

TEST(UnixSocket, OversizedSubmissionLineIsRejectedAndNextClientServed) {
  ProcessPool pool(pool_options(1));
  CampaignService service(pool);
  const std::string path = temp_path("svc_hostile.sock");
  const int listen_fd = listen_unix(path);
  ASSERT_GE(listen_fd, 0);
  std::thread daemon = serve_in_turn(service, listen_fd, 2);

  // A hostile client: one byte more than the cap, and no newline.
  const int hostile = connect_unix(path);
  const std::string flood(kMaxSubmissionLineBytes + 1, 'x');
  for (std::size_t sent = 0; sent < flood.size();) {
    const ssize_t n = ::send(hostile, flood.data() + sent, flood.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ADD_FAILURE() << "the daemon stopped reading after " << sent << " bytes";
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  EXPECT_TRUE(read_line_fd(hostile, reply));
  EXPECT_NE(reply.find("\"event\": \"rejected\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("longer than 1048576 bytes"), std::string::npos) << reply;
  EXPECT_FALSE(read_line_fd(hostile, reply)) << "the daemon closes the connection";
  ::close(hostile);

  // The daemon still serves the next client's submission to the end.
  EXPECT_TRUE(submission_runs_to_done(path, "svc_after_flood"));

  daemon.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

TEST(UnixSocket, DeeplyNestedSubmissionIsRejectedAndNextClientServed) {
  ProcessPool pool(pool_options(1));
  CampaignService service(pool);
  const std::string path = temp_path("svc_nested.sock");
  const int listen_fd = listen_unix(path);
  ASSERT_GE(listen_fd, 0);
  std::thread daemon = serve_in_turn(service, listen_fd, 2);

  // A hostile client: a campaign line of 200,000 '[' -- under the line
  // cap, but deep enough to overflow a parser without a depth bound.
  const int hostile = connect_unix(path);
  EXPECT_TRUE(write_line_fd(hostile, "{\"op\": \"submit\"}"));
  EXPECT_TRUE(write_line_fd(hostile, std::string(200000, '[')));
  std::string reply;
  EXPECT_TRUE(read_line_fd(hostile, reply));
  EXPECT_NE(reply.find("\"event\": \"rejected\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("nesting deeper than"), std::string::npos) << reply;
  ::close(hostile);

  EXPECT_TRUE(submission_runs_to_done(path, "svc_after_nesting"));

  daemon.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

TEST(UnixSocket, NonIntegerPriorityIsRejectedAndNextClientServed) {
  ProcessPool pool(pool_options(1));
  CampaignService service(pool);
  const std::string path = temp_path("svc_priority.sock");
  const int listen_fd = listen_unix(path);
  ASSERT_GE(listen_fd, 0);
  const char* hostile[] = {"1e30", "-1e30", "1.5", "null"};
  std::thread daemon = serve_in_turn(service, listen_fd, 5);

  // Casting any of these to int was undefined behaviour.
  const std::string campaign =
      wire::campaign_to_json(grid_spec("svc_bad_priority"), small_sim_options());
  for (const char* priority : hostile) {
    const int client = connect_unix(path);
    EXPECT_TRUE(write_line_fd(
        client, std::string("{\"op\": \"submit\", \"priority\": ") + priority + "}"));
    EXPECT_TRUE(write_line_fd(client, campaign));
    std::string reply;
    EXPECT_TRUE(read_line_fd(client, reply));
    EXPECT_NE(reply.find("\"event\": \"rejected\""), std::string::npos) << priority;
    EXPECT_NE(reply.find("priority"), std::string::npos) << reply;
    EXPECT_FALSE(read_line_fd(client, reply)) << "the daemon closes the connection";
    ::close(client);
  }

  EXPECT_TRUE(submission_runs_to_done(path, "svc_after_priority"));

  daemon.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
  EXPECT_EQ(service.metrics().jobs_submitted, 1u) << "no hostile header was queued";
}

}  // namespace
}  // namespace sci::exec
