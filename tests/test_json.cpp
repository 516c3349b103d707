// obs::json, the one JSON reader and writer: its depth bound and
// hostile-token handling, then one seeded-mutation test over every JSON
// schema the repo emits. Each loader must either return or throw
// std::runtime_error on any mutant (ASan/UBSan watch for the rest), and
// its canonical input must re-emit byte for byte.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ci/history.hpp"
#include "exec/progress.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "mutation.hpp"
#include "obs/bench_report.hpp"
#include "obs/daemon_metrics.hpp"
#include "obs/json.hpp"
#include "rng/xoshiro.hpp"

namespace sci {
namespace {

// ---------------------------------------------------------- the parser

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, NestingAtTheDepthBoundParses) {
  const obs::json::Value v = obs::json::parse(nested_arrays(obs::json::kMaxDepth));
  EXPECT_EQ(v.type, obs::json::Value::Type::kArray);
}

TEST(Json, NestingPastTheDepthBoundThrows) {
  EXPECT_THROW((void)obs::json::parse(nested_arrays(obs::json::kMaxDepth + 1)),
               std::runtime_error);
  // Without the bound, each of these recursed until the stack ran out.
  EXPECT_THROW((void)obs::json::parse(std::string(200000, '[')), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)obs::json::parse(objects), std::runtime_error);
}

TEST(Json, HostileTokensThrow) {
  for (const char* text : {R"({"x": nuxx})", R"(["\uzzzz"])", R"({"ts": nan})", "[1e999]",
                           "[inf]", "[1] 2", "[1,]", "{\"a\" 1}"}) {
    EXPECT_THROW((void)obs::json::parse(text), std::runtime_error) << text;
  }
}

// ------------------------------------------- every schema, mutated

struct Schema {
  const char* name;
  std::string (*canonical)();
  /// Loads `text` with the schema's parser and emits the result again.
  std::string (*round_trip)(std::string_view text);
};

obs::BenchMetric metric(const char* name, double median) {
  obs::BenchMetric m;
  m.name = name;
  m.unit = "ms";
  m.n = 12;
  m.median = median;
  m.ci_lo = median * 0.9;
  m.ci_hi = std::nan("");
  return m;
}

std::string bench_canonical() {
  obs::BenchReport report;
  report.bench = "fuzz";
  report.git_sha = "0123abc";
  report.context = {{"build_type", "release"}, {"note", "tab\there \"quoted\""}};
  report.metrics = {metric("lat", 4.25), metric("rss", 1.5e6)};
  report.metrics[1].improve = obs::Improve::kHigher;
  report.counters = {{"allocs", 0}, {"spills", 17}};
  return obs::bench_report_json(report);
}

std::string history_canonical() {
  ci::HistoryPoint point;
  point.seq = 3;
  point.git_sha = "0123abc";
  point.bench = "fuzz";
  point.metric = metric("lat", 4.25);
  return ci::history_line(point);
}

std::string daemon_canonical() {
  obs::DaemonMetrics m;
  m.jobs_submitted = 9;
  m.jobs_completed = 8;
  m.jobs_rejected = 1;
  m.queue_peak = 4;
  m.cells_executed = 31;
  m.cells_deduped = 5;
  m.workers_spawned = 2;
  return m.to_json();
}

std::string progress_canonical() {
  exec::ProgressSnapshot s;
  s.campaign = "fuzz";
  s.backend = "sim";
  s.total_cells = 8;
  s.completed = 8;
  s.executed = 7;
  s.failed = 1;
  s.samples_executed = 168;
  s.samples_total = 168;
  s.elapsed_s = 0.125;
  s.finished = true;
  s.sequential = true;
  s.configs_total = 4;
  s.configs_converged = 3;
  s.configs_capped = 1;
  s.rounds = 2;
  s.rep_counts = {2, 2, 3, 1};
  s.workers = {{4, 0.0625}, {4, 0.05}};
  s.counter_delta = {{"sim.events", 1234}};
  return s.to_json();
}

exec::SimBackendOptions backend_options() {
  exec::SimBackendOptions opts;
  opts.kernel = exec::SimKernel::kPingPong;
  opts.samples = 24;
  opts.warmup = 2;
  opts.scale = 1e6;
  opts.unit = "us";
  return opts;
}

exec::CampaignSpec campaign_spec() {
  exec::CampaignSpec spec;
  spec.name = "fuzz_grid";
  spec.description = "mutation fixture";
  spec.base.environment["site"] = "unit test";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.factors.push_back({"message_bytes", {"64", "4096"}});
  spec.replications = 2;
  spec.seed = 4242;
  spec.stopping = exec::StoppingPolicy::sequential_ci(0.03, 3, 9);
  return spec;
}

std::string campaign_canonical() {
  return exec::wire::campaign_to_json(campaign_spec(), backend_options());
}

std::string job_canonical() {
  const exec::Campaign campaign{campaign_spec()};
  const exec::Config config = campaign.config(2);
  return exec::wire::job_to_json(backend_options(), config, campaign.seed_for(config, 1));
}

std::string cell_canonical() {
  exec::CellResult result;
  result.samples = {1.5, -0.0, 3.0e-7, std::nan("0x5ca1ab1e")};
  result.unit = "us";
  result.stop_reason = "fixed";
  result.warmup_discarded = 2;
  result.error = "line\nbreak";
  return exec::wire::cell_result_to_json(result);
}

const Schema kSchemas[] = {
    {"bench_report", bench_canonical,
     [](std::string_view t) { return obs::bench_report_json(obs::parse_bench_report(t)); }},
    {"history_line", history_canonical,
     [](std::string_view t) { return ci::history_line(ci::parse_history_line(t)); }},
    {"daemon_metrics", daemon_canonical,
     [](std::string_view t) { return obs::parse_daemon_metrics(t).to_json(); }},
    {"progress_snapshot", progress_canonical,
     [](std::string_view t) { return exec::parse_progress_snapshot(t).to_json(); }},
    {"wire_campaign", campaign_canonical,
     [](std::string_view t) {
       const exec::wire::CampaignEnvelope e = exec::wire::parse_campaign_json(t);
       return exec::wire::campaign_to_json(e.spec, e.backend);
     }},
    {"wire_job", job_canonical,
     [](std::string_view t) {
       const exec::wire::JobSpec j = exec::wire::parse_job_json(t);
       return exec::wire::job_to_json(j.backend, j.config, j.seed);
     }},
    {"wire_cell", cell_canonical,
     [](std::string_view t) {
       return exec::wire::cell_result_to_json(exec::wire::parse_cell_result_json(t));
     }},
};

// Prints the schema by name: the default prints the struct's bytes
// (function addresses), which would change the discovered test names
// at every run.
void PrintTo(const Schema& schema, std::ostream* os) { *os << schema.name; }

class JsonSchema : public ::testing::TestWithParam<Schema> {};

TEST_P(JsonSchema, CanonicalReEmitsAndMutantsLoadOrThrow) {
  const Schema& schema = GetParam();
  const std::string canonical = schema.canonical();
  ASSERT_EQ(schema.round_trip(canonical), canonical);

  // Any other exception type escapes and fails the test.
  const auto attack = [&schema](const std::string& bytes) {
    try {
      (void)schema.round_trip(bytes);
    } catch (const std::runtime_error&) {
    }
  };
  // A cut before the closing brace can never be a whole document.
  const std::size_t closing = canonical.rfind('}');
  for (std::size_t cut = 0; cut < canonical.size(); ++cut) {
    if (cut <= closing) {
      EXPECT_THROW((void)schema.round_trip(canonical.substr(0, cut)), std::runtime_error)
          << "cut=" << cut;
    } else {
      attack(canonical.substr(0, cut));
    }
  }
  rng::Xoshiro256 gen(0x6a736f6e);
  constexpr int kMutationsPerKind = 300;
  for (int kind = 0; kind < fuzz::kMutationKinds; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      std::string bytes = canonical;
      fuzz::mutate(bytes, kind, gen);
      attack(bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemas, JsonSchema, ::testing::ValuesIn(kSchemas),
                         [](const ::testing::TestParamInfo<Schema>& schema) {
                           return std::string(schema.param.name);
                         });

}  // namespace
}  // namespace sci
