#include "exec/service.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exec/wire.hpp"
#include "obs/json.hpp"

namespace sci::exec {

namespace json = obs::json;

namespace {

/// Forwards runner heartbeats as single-line "progress" events.
class EventProgressSink : public ProgressSink {
 public:
  EventProgressSink(std::uint64_t job_id, std::function<void(const std::string&)> emit)
      : job_id_(job_id), emit_(std::move(emit)) {}

  void on_heartbeat(const ProgressSnapshot& s) override {
    std::string line = "{\"event\": \"progress\", \"job\": " + json::dump_size(job_id_);
    line += ", \"completed\": " + json::dump_size(s.completed);
    line += ", \"total\": " + json::dump_size(s.total_cells);
    line += ", \"executed\": " + json::dump_size(s.executed);
    line += ", \"cache_hits\": " + json::dump_size(s.cache_hits);
    line += ", \"journal_hits\": " + json::dump_size(s.journal_hits);
    line += ", \"failed\": " + json::dump_size(s.failed);
    line += ", \"interrupted\": " + json::dump_size(s.interrupted);
    line += ", \"elapsed_s\": " + json::dump_number(s.elapsed_s);
    line += "}";
    emit_(line);
  }
  void on_complete(const ProgressSnapshot&) override {}  // "done" covers it

 private:
  std::uint64_t job_id_;
  std::function<void(const std::string&)> emit_;
};

}  // namespace

CampaignService::CampaignService(ProcessPool& pool, ServiceOptions options)
    : pool_(pool), options_(options) {
  service_thread_ = std::thread([this] { service_loop(); });
}

CampaignService::~CampaignService() {
  stop();
  if (service_thread_.joinable()) service_thread_.join();
}

void CampaignService::emit(ServiceEventSink* sink, const std::string& line) {
  if (sink == nullptr) return;
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sink->on_event(line);
}

std::uint64_t CampaignService::submit(Submission submission, ServiceEventSink* sink) {
  std::uint64_t id = 0;
  const int priority = submission.priority;
  bool rejected = false;
  // Held from before the job becomes visible to the service thread
  // until "queued" is written, so the job's "started" cannot overtake it.
  std::unique_lock<std::mutex> sink_lock(sink_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_job_id_++;
    if (stopping_) {
      rejected = true;
      metrics_.jobs_rejected += 1;
      JobOutcome outcome;
      outcome.job_id = id;
      outcome.error = "service is stopping";
      outcomes_.emplace(id, std::move(outcome));
    } else {
      metrics_.jobs_submitted += 1;
      QueuedJob job;
      job.id = id;
      job.priority = submission.priority;
      job.submission = std::move(submission);
      job.sink = sink;
      queue_.push(std::move(job));
      if (queue_.size() > metrics_.queue_peak) metrics_.queue_peak = queue_.size();
    }
  }
  if (sink != nullptr) {
    const std::string job_field = "\"job\": " + json::dump_size(id);
    if (rejected) {
      sink->on_event("{\"event\": \"rejected\", " + job_field +
                     ", \"error\": " + json::quoted("service is stopping") + "}");
    } else {
      sink->on_event("{\"event\": \"queued\", " + job_field +
                     ", \"priority\": " + std::to_string(priority) + "}");
    }
  }
  sink_lock.unlock();
  if (rejected) {
    done_cv_.notify_all();
  } else {
    queue_cv_.notify_one();
  }
  return id;
}

JobOutcome CampaignService::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return outcomes_.count(job_id) != 0; });
  return outcomes_.at(job_id);
}

void CampaignService::stop() {
  std::vector<QueuedJob> cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && queue_.empty()) {
      queue_cv_.notify_all();
      return;
    }
    stopping_ = true;
    while (!queue_.empty()) {
      cancelled.push_back(queue_.top());
      queue_.pop();
    }
  }
  for (auto& job : cancelled) {
    JobOutcome outcome;
    outcome.job_id = job.id;
    outcome.error = "cancelled: service stopping";
    emit(job.sink,
         "{\"event\": \"cancelled\", \"job\": " + json::dump_size(job.id) + "}");
    finish(job.id, std::move(outcome));
  }
  queue_cv_.notify_all();
}

obs::DaemonMetrics CampaignService::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::DaemonMetrics m = metrics_;
  m.workers_spawned = pool_.workers_spawned();
  m.workers_crashed = pool_.workers_crashed();
  return m;
}

void CampaignService::finish(std::uint64_t job_id, JobOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.jobs_completed += outcome.ran ? 1 : 0;
    metrics_.jobs_with_failures += (outcome.ran && outcome.failed > 0) ? 1 : 0;
    metrics_.cells_executed += outcome.executed;
    metrics_.cells_deduped += outcome.deduped;
    metrics_.cells_journal_replayed += outcome.journal_hits;
    metrics_.cells_failed += outcome.failed;
    metrics_.cells_interrupted += outcome.interrupted;
    outcomes_[job_id] = std::move(outcome);
  }
  done_cv_.notify_all();
}

void CampaignService::service_loop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = queue_.top();
      queue_.pop();
    }
    run_job(std::move(job));
  }
}

void CampaignService::run_job(QueuedJob job) {
  // Cell events arrive on runner worker threads and heartbeats on the
  // monitor thread; emit() serializes them with every other sink call.
  const auto emit_line = [&](const std::string& line) { emit(job.sink, line); };

  JobOutcome outcome;
  outcome.job_id = job.id;
  const Submission& sub = job.submission;

  try {
    Campaign campaign(sub.spec);  // validates; invalid specs are rejected below

    emit_line("{\"event\": \"started\", \"job\": " + json::dump_size(job.id) +
              ", \"campaign\": " + json::quoted(sub.spec.name) +
              ", \"cells\": " + json::dump_size(campaign.cell_count()) + "}");

    PoolBackend backend(pool_, sub.backend);
    backend.set_shared_cache(&cache_, &cache_mutex_);
    backend.set_observer([&](const Config& config, std::uint64_t seed,
                             const CellResult& result, bool deduped) {
      std::string line = "{\"event\": \"cell\", \"job\": " + json::dump_size(job.id);
      line += ", \"config\": " + json::dump_size(config.index);
      line += ", \"seed\": " + json::quoted(wire::hex_u64(seed));
      line += ", \"n\": " + json::dump_size(result.samples.size());
      line += ", \"deduped\": ";
      line += deduped ? "true" : "false";
      line += "}";
      emit_line(line);
    });

    EventProgressSink progress(job.id, emit_line);
    CampaignRunnerOptions ropts;
    ropts.workers =
        options_.runner_threads != 0 ? options_.runner_threads : pool_.worker_count();
    ropts.journal_path = sub.journal_path;
    ropts.max_attempts = sub.max_attempts;
    ropts.cell_budget = sub.cell_budget;
    ropts.metrics_path = sub.metrics_path;
    ropts.interrupt = options_.interrupt;
    if (sub.heartbeat_s > 0.0) {
      ropts.progress = &progress;
      ropts.heartbeat_period_s = sub.heartbeat_s;
    }

    CampaignRunner runner(backend, std::move(campaign), ropts);
    const CampaignResult result = runner.run();

    if (!sub.samples_csv.empty()) result.samples_dataset().save_csv(sub.samples_csv);
    if (!sub.summary_csv.empty()) result.summary_dataset().save_csv(sub.summary_csv);

    outcome.ran = true;
    outcome.cells = result.cells.size();
    // The runner counts a shared-cache hit as an executed cell (the
    // backend call succeeded); only the rest reached a worker.
    outcome.deduped = backend.deduped();
    outcome.executed = result.executed - outcome.deduped;
    outcome.cache_hits = result.cache_hits;
    outcome.journal_hits = result.journal_hits;
    outcome.failed = result.failed;
    outcome.interrupted = result.interrupted;
    outcome.retries = result.retries;
    outcome.rounds = result.rounds;
    outcome.sequential = result.sequential;

    std::string line = "{\"event\": \"done\", \"job\": " + json::dump_size(job.id);
    line += ", \"cells\": " + json::dump_size(outcome.cells);
    line += ", \"executed\": " + json::dump_size(outcome.executed);
    line += ", \"deduped\": " + json::dump_size(outcome.deduped);
    line += ", \"cache_hits\": " + json::dump_size(outcome.cache_hits);
    line += ", \"journal_hits\": " + json::dump_size(outcome.journal_hits);
    line += ", \"failed\": " + json::dump_size(outcome.failed);
    line += ", \"interrupted\": " + json::dump_size(outcome.interrupted);
    line += ", \"retries\": " + json::dump_size(outcome.retries);
    line += ", \"rounds\": " + json::dump_size(outcome.rounds);
    line += ", \"sequential\": ";
    line += outcome.sequential ? "true" : "false";
    line += "}";
    emit_line(line);
  } catch (const std::invalid_argument& e) {
    // The spec itself is broken: admission failure.
    outcome.ran = false;
    outcome.error = e.what();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      metrics_.jobs_rejected += 1;
    }
    emit_line("{\"event\": \"rejected\", \"job\": " + json::dump_size(job.id) +
              ", \"error\": " + json::quoted(outcome.error) + "}");
  } catch (const std::exception& e) {
    // The run itself failed (journal mismatch, unwritable CSV...).
    outcome.ran = false;
    outcome.error = e.what();
    emit_line("{\"event\": \"error\", \"job\": " + json::dump_size(job.id) +
              ", \"error\": " + json::quoted(outcome.error) + "}");
  }

  finish(job.id, std::move(outcome));
}

// ---------------------------------------------------------------- sockets

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("listen_unix: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("listen_unix: socket: " + std::string(std::strerror(errno)));
  }
  ::unlink(path.c_str());  // stale socket from a previous daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen_unix: bind " + path + ": " + err);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen_unix: listen: " + err);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("connect_unix: socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("connect_unix: socket: " +
                             std::string(std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect_unix: " + path + ": " + err);
  }
  return fd;
}

bool write_line_fd(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  const char* data = framed.data();
  std::size_t size = framed.size();
  while (size > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(fd, data, size);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line_fd(int fd, std::string& line, std::size_t max_bytes) {
  line.clear();
  char block[kLineBlockBytes];
  for (;;) {
    // Look at what has arrived without taking it, then take exactly the
    // bytes through the newline: whatever follows stays in the socket
    // for the next call.
    ssize_t n = ::recv(fd, block, sizeof block, MSG_PEEK);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-line: dead peer
    const void* newline = std::memchr(block, '\n', static_cast<std::size_t>(n));
    const std::size_t take =
        newline == nullptr
            ? static_cast<std::size_t>(n)
            : static_cast<std::size_t>(static_cast<const char*>(newline) - block) + 1;
    std::size_t got = 0;
    while (got < take) {
      n = ::recv(fd, block + got, take - got, MSG_WAITALL);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
      } else if (n == 0 || errno != EINTR) {
        return false;
      }
    }
    line.append(block, newline == nullptr ? take : take - 1);
    if (line.size() > max_bytes) {
      throw std::runtime_error("line longer than " + std::to_string(max_bytes) + " bytes");
    }
    if (newline != nullptr) return true;
  }
}

namespace {

/// Streams one submission's events to the connected client; a dead peer
/// mutes the stream (the job keeps running -- results land on disk).
class ClientSink : public ServiceEventSink {
 public:
  explicit ClientSink(int fd) : fd_(fd) {}
  void on_event(const std::string& line) override {
    if (alive_) alive_ = write_line_fd(fd_, line);
  }

 private:
  int fd_;
  bool alive_ = true;
};

}  // namespace

void serve_client(CampaignService& service, int fd) {
  ClientSink sink(fd);
  try {
    std::string header_line;
    std::string campaign_line;
    if (read_line_fd(fd, header_line, kMaxSubmissionLineBytes) &&
        read_line_fd(fd, campaign_line, kMaxSubmissionLineBytes)) {
      const json::Value header = json::parse(header_line);
      if (header.at("op").as_string() != "submit") {
        throw std::runtime_error("unknown op \"" + header.at("op").as_string() + "\"");
      }
      const wire::CampaignEnvelope envelope = wire::parse_campaign_json(campaign_line);

      Submission sub;
      sub.spec = envelope.spec;
      sub.backend = envelope.backend;
      const auto str = [&](const char* key) {
        const json::Value* v = header.find(key);
        return v == nullptr ? std::string() : v->as_string();
      };
      if (const json::Value* v = header.find("priority")) {
        const std::optional<int> priority =
            v->type == json::Value::Type::kNumber ? json::exact_int(v->number) : std::nullopt;
        if (!priority) {
          throw std::runtime_error("\"priority\" must be an integer in int range");
        }
        sub.priority = *priority;
      }
      sub.journal_path = str("journal");
      sub.samples_csv = str("samples_csv");
      sub.summary_csv = str("summary_csv");
      sub.metrics_path = str("metrics");
      if (const json::Value* v = header.find("max_attempts")) {
        sub.max_attempts = v->as_size();
      }
      if (const json::Value* v = header.find("heartbeat_s")) {
        sub.heartbeat_s = v->as_number();
      }

      const std::uint64_t id = service.submit(std::move(sub), &sink);
      (void)service.wait(id);  // terminal event already streamed
    }
  } catch (const std::exception& e) {
    write_line_fd(fd, "{\"event\": \"rejected\", \"job\": 0, \"error\": " +
                          json::quoted(e.what()) + "}");
  }
  ::close(fd);
}

}  // namespace sci::exec
