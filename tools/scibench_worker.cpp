// scibench_worker: one sandboxed cell executor behind the process pool.
//
// Protocol (exec/wire.hpp): read one "scibench.job" line from stdin,
// run the cell, write one "scibench.cell" line to stdout, repeat until
// stdin closes. Stateless on purpose -- every job line carries the full
// backend options, so any worker can run any job and a crashed worker's
// job re-dispatches elsewhere with the same seed and the same bytes.
//
// A backend exception becomes an error reply (the parent re-throws it,
// so the runner's retry/containment path is identical to an in-process
// throwing backend). A crash -- abort(), segfault, SIGKILL -- kills
// only this process; the parent observes EOF on the pipe and respawns.
//
// Fault drill: a campaign factor named "worker_fault" lets the tests
// and the CI smoke job exercise crash containment deterministically:
//   abort      call abort() (SIGABRT, core-dump class crash)
//   exit       _exit(9) without a reply (silent death)
//   kill_once  if the file named by $SCIBENCH_WORKER_KILL_FILE exists,
//              unlink it and _exit(9) -- exactly one worker dies
//              mid-campaign, emulating an external SIGKILL; the retry
//              then runs the same cell to completion.
// SimBackend ignores unknown factors, so the same campaign run
// in-process produces identical samples -- which is what lets the tests
// compare daemon CSVs against in-process CSVs even in the drill.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"

namespace exec = sci::exec;

namespace {

void maybe_inject_fault(const exec::Config& config) {
  const std::string* fault = config.find_level("worker_fault");
  if (fault == nullptr || *fault == "none") return;
  if (*fault == "abort") std::abort();
  if (*fault == "exit") _exit(9);
  if (*fault == "kill_once") {
    const char* sentinel = std::getenv("SCIBENCH_WORKER_KILL_FILE");
    if (sentinel != nullptr && ::unlink(sentinel) == 0) _exit(9);
  }
}

}  // namespace

int main() {
  char* buffer = nullptr;  // getline(3) reuses and grows it
  std::size_t capacity = 0;
  int status = 0;
  for (ssize_t n = 0; (n = ::getline(&buffer, &capacity, stdin)) != -1;) {
    // A last line without its newline still runs; EOF ends the loop.
    const std::string_view line(buffer, static_cast<std::size_t>(
                                            n > 0 && buffer[n - 1] == '\n' ? n - 1 : n));

    exec::CellResult reply;
    try {
      const exec::wire::JobSpec job = exec::wire::parse_job_json(line);
      maybe_inject_fault(job.config);
      exec::SimBackend backend(job.backend);
      reply = backend.run(job.config, job.seed);
    } catch (const std::exception& e) {
      reply = exec::CellResult{};
      reply.samples.clear();
      reply.error = e.what();
    }

    std::string out = exec::wire::cell_result_to_json(reply);
    out += '\n';
    if (std::fwrite(out.data(), 1, out.size(), stdout) != out.size() ||
        std::fflush(stdout) != 0) {
      status = 1;
      break;
    }
  }
  std::free(buffer);
  return status;  // 0: the parent closed the pipe
}
