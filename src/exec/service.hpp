// CampaignService: the benchmark-as-a-service core behind scibenchd.
//
// The service owns a priority submission queue, a cross-job dedupe
// cache, and one service thread that runs admitted campaigns through an
// ordinary CampaignRunner whose backend is a PoolBackend -- cells
// execute in scibench_worker processes (exec/process_pool.hpp), so a
// backend that aborts or is SIGKILLed costs one worker, not the daemon.
//
// Deliberate reuse over reinvention: the service contains NO scheduling
// or journaling logic of its own. Rounds, sequential stopping, retry
// containment, journal WAL/resume, and result assembly are exactly the
// CampaignRunner's -- which is why a campaign run through the daemon at
// any worker-process count produces CSVs byte-identical to an
// in-process run (the PR invariant, pinned by test_exec_service.cpp).
//
// Queue semantics: jobs run one at a time, highest priority first,
// submission order within a priority (deterministic; no starvation
// surprises). Concurrency lives below the queue -- each job saturates
// the whole worker-process fleet -- so two "concurrent" clients
// serialize at the campaign level but share the dedupe cache: the
// overlapping cells of the second submission are served from the cache
// without touching a worker.
//
// Dedupe: the cache is keyed on full-identity CellKey (backend name,
// factor/level assignment, seed) -- the same key the runner's own
// in-memory cache uses -- so only a cell that would provably produce
// identical bytes is ever deduplicated.
//
// Events: every state transition is streamed to the submitting client's
// ServiceEventSink as one line of canonical JSON ("queued", "started",
// per-cell "cell", periodic "progress" heartbeats, "done"/"rejected"/
// "error"), the ProgressSnapshot-style live view the tools print.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "exec/process_pool.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "obs/daemon_metrics.hpp"

namespace sci::exec {

/// One campaign submission: the serializable campaign plus run options
/// the client controls. Output paths are daemon-side filesystem paths
/// (the transport is a local Unix socket; client and daemon share the
/// filesystem by construction).
struct Submission {
  CampaignSpec spec;
  SimBackendOptions backend;
  /// Larger runs first; ties resolve in submission order.
  int priority = 0;
  std::string journal_path;  ///< WAL for crash-safe resume (optional)
  std::string samples_csv;   ///< written when non-empty
  std::string summary_csv;   ///< written when non-empty
  std::string metrics_path;  ///< final ProgressSnapshot (optional)
  std::size_t max_attempts = 1;
  /// Deterministic kill drill (CampaignRunnerOptions::cell_budget).
  std::size_t cell_budget = 0;
  /// Emit "progress" events every this many seconds (0 = off).
  double heartbeat_s = 0.0;
};

/// Terminal state of one job.
struct JobOutcome {
  std::uint64_t job_id = 0;
  bool ran = false;          ///< false: rejected or cancelled
  std::string error;         ///< rejection/cancellation/abort reason
  std::size_t cells = 0;
  std::size_t executed = 0;  ///< reached a worker process
  std::size_t deduped = 0;   ///< served from the cross-job cache
  std::size_t cache_hits = 0;
  std::size_t journal_hits = 0;
  std::size_t failed = 0;
  std::size_t interrupted = 0;
  std::size_t retries = 0;
  std::size_t rounds = 0;
  bool sequential = false;
};

/// Receives the event stream of one submission. The service makes one
/// sink call at a time across all sinks and threads, and a job's
/// "queued" (or "rejected") event always comes first; implementations
/// that write to sockets should tolerate slow/dead peers without
/// throwing.
class ServiceEventSink {
 public:
  virtual ~ServiceEventSink() = default;
  virtual void on_event(const std::string& json_line) = 0;
};

struct ServiceOptions {
  /// Runner threads driving the pool per job; 0 = pool worker count
  /// (saturate the fleet). Never affects result bytes.
  std::size_t runner_threads = 0;
  /// Cooperative interrupt forwarded to every runner (see
  /// exec/interrupt.hpp); a signalled daemon drains the active job as
  /// interrupted cells and journals nothing partial.
  const std::atomic<bool>* interrupt = nullptr;
};

class CampaignService {
 public:
  CampaignService(ProcessPool& pool, ServiceOptions options = {});
  /// Stops the queue (pending jobs are cancelled) and joins.
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Enqueues a campaign; returns its job id immediately. `sink` may be
  /// nullptr (no event stream) and must otherwise outlive the job.
  std::uint64_t submit(Submission submission, ServiceEventSink* sink = nullptr);

  /// Blocks until the job reaches a terminal state.
  [[nodiscard]] JobOutcome wait(std::uint64_t job_id);

  /// Stops accepting work and cancels everything still queued; the
  /// in-flight job (if any) finishes or drains via the interrupt flag.
  void stop();

  [[nodiscard]] obs::DaemonMetrics metrics() const;

 private:
  struct QueuedJob {
    std::uint64_t id = 0;
    int priority = 0;
    Submission submission;
    ServiceEventSink* sink = nullptr;
  };
  struct QueueOrder {
    bool operator()(const QueuedJob& a, const QueuedJob& b) const noexcept {
      if (a.priority != b.priority) return a.priority < b.priority;  // max-heap
      return a.id > b.id;  // FIFO within a priority
    }
  };

  void service_loop();
  void run_job(QueuedJob job);
  void finish(std::uint64_t job_id, JobOutcome outcome);
  /// Calls sink->on_event under sink_mutex_ (no-op for nullptr).
  void emit(ServiceEventSink* sink, const std::string& line);

  ProcessPool& pool_;
  ServiceOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable done_cv_;
  std::priority_queue<QueuedJob, std::vector<QueuedJob>, QueueOrder> queue_;
  std::map<std::uint64_t, JobOutcome> outcomes_;
  std::uint64_t next_job_id_ = 1;
  bool stopping_ = false;
  obs::DaemonMetrics metrics_;

  /// Serializes every sink call; never held while taking mutex_ except
  /// in submit(), which takes it first.
  std::mutex sink_mutex_;

  std::mutex cache_mutex_;
  CellCache cache_;  ///< cross-job dedupe, full-identity CellKey

  std::thread service_thread_;
};

// ---------------------------------------------------------------------
// Unix-domain line transport shared by scibenchd and scibench_submit.
// Control-plane only: one short JSON line per read/write.

/// Binds + listens on `path` (unlinking a stale socket first). Throws
/// std::runtime_error; returns the listening fd.
[[nodiscard]] int listen_unix(const std::string& path, int backlog = 8);
/// Connects to a listening daemon; throws std::runtime_error.
[[nodiscard]] int connect_unix(const std::string& path);
/// Writes `line` + '\n'; false on a dead peer (never throws, never
/// raises SIGPIPE -- callers sit in event loops).
bool write_line_fd(int fd, const std::string& line);
/// Bytes read_line_fd looks ahead per system call.
inline constexpr std::size_t kLineBlockBytes = 4096;

/// Reads one '\n'-terminated line from a connected stream socket (it
/// uses recv(2) with MSG_PEEK; on any other fd it returns false).
/// Stateless: it consumes the line through its newline and never past
/// it, so the next line stays in the socket for the next call or
/// another reader. Each step peeks at up to kLineBlockBytes, then takes
/// the bytes up to and including the first newline among them -- two
/// system calls per block, not one per byte. Returns false on EOF
/// (also mid-line) or error. A line longer than `max_bytes` (newline
/// excluded) throws std::runtime_error ("line longer than N bytes")
/// once more than max_bytes bytes of it are read, which is after at
/// most max_bytes + kLineBlockBytes bytes have been consumed.
bool read_line_fd(int fd, std::string& line,
                  std::size_t max_bytes = std::numeric_limits<std::size_t>::max());

/// Longest submission line scibenchd buffers from a client. A campaign
/// envelope is a few KiB; the cap bounds what one connection can make
/// the daemon hold.
inline constexpr std::size_t kMaxSubmissionLineBytes = std::size_t{1} << 20;

/// Serves one scibenchd client connection: reads the two-line
/// submission (a {"op": "submit", ...} header, then a scibench.campaign
/// envelope, each at most kMaxSubmissionLineBytes), runs it on `service`
/// while streaming its events to the client, and closes `fd`. A bad or
/// oversized submission gets a "rejected" event instead.
void serve_client(CampaignService& service, int fd);

}  // namespace sci::exec
