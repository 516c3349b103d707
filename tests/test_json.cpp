// obs::json, the one JSON reader and writer: its depth bound and
// hostile-token handling, then one seeded-mutation test over every JSON
// schema the repo emits. Each loader must either return or throw
// std::runtime_error on any mutant (ASan/UBSan watch for the rest), and
// its canonical input must re-emit byte for byte. Last, the streaming
// decoders built on json::Reader (wire cell results, journal replay)
// are checked against the tree walks they replaced (tests/oracle):
// same accept or reject on every mutant, bit-identical samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ci/history.hpp"
#include "exec/journal.hpp"
#include "exec/progress.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "mutation.hpp"
#include "obs/bench_report.hpp"
#include "obs/daemon_metrics.hpp"
#include "obs/json.hpp"
#include "oracle/wire_tree.hpp"
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

TEST(JsonReader, WalksADocumentTokenByToken) {
  obs::json::Reader in(R"( {"n": 3, "skip": {"a": [1, "x\"y", null, true]}, "s": "a\tb",
                           "list": [], "z": false} )");
  static constexpr std::string_view kKeys[] = {"n", "s", "list", "z"};
  std::uint64_t seen = 0;
  in.begin_object();
  EXPECT_EQ(in.next_member(kKeys, seen), 0u);
  EXPECT_EQ(in.size(), 3u);
  EXPECT_EQ(in.next_member(kKeys, seen), 1u);  // "skip" was skipped whole
  EXPECT_EQ(in.string(), "a\tb");
  EXPECT_EQ(in.next_member(kKeys, seen), 2u);
  EXPECT_EQ(in.peek(), obs::json::Value::Type::kArray);
  in.begin_array();
  EXPECT_FALSE(in.next_element());
  EXPECT_EQ(in.next_member(kKeys, seen), 3u);
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.next_member(kKeys, seen), std::size(kKeys));
  in.finish();
  EXPECT_EQ(seen, 0b1111u);
}

TEST(JsonReader, RepeatedKeyCountsOnceAndMissingKeyIsNamed) {
  obs::json::Reader in(R"({"a": 1, "a": "not a number"})");
  static constexpr std::string_view kKeys[] = {"a", "b"};
  std::uint64_t seen = 0;
  in.begin_object();
  EXPECT_EQ(in.next_member(kKeys, seen), 0u);
  EXPECT_EQ(in.number(), 1.0);
  EXPECT_EQ(in.next_member(kKeys, seen), std::size(kKeys));
  in.finish();
  try {
    obs::json::require_keys(kKeys, seen, 0b11);
    ADD_FAILURE() << "a missing key was not reported";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "json: missing key 'b'");
  }
}

TEST(JsonReader, TypedReadsRejectOtherTokens) {
  const auto throws = [](std::string_view text, auto read) {
    obs::json::Reader in(text);
    EXPECT_THROW(read(in), std::runtime_error) << text;
  };
  throws("3", [](obs::json::Reader& in) { (void)in.string(); });
  throws("\"3\"", [](obs::json::Reader& in) { (void)in.number(); });
  throws("null", [](obs::json::Reader& in) { (void)in.number(); });
  for (const char* text : {"-1", "1.5", "1e30", "null"}) {
    throws(text, [](obs::json::Reader& in) { (void)in.size(); });
  }
  throws("[1]", [](obs::json::Reader& in) { in.begin_object(); });
  throws("[1 2]", [](obs::json::Reader& in) {
    in.begin_array();
    while (in.next_element()) in.skip();
  });
  throws("{\"a\": 1} x", [](obs::json::Reader& in) {
    in.skip();
    in.finish();
  });
  throws(nested_arrays(obs::json::kMaxDepth + 1),
         [](obs::json::Reader& in) { in.skip(); });
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

// ------------------------- pull decoders against the tree oracles

std::optional<exec::CellResult> pull_cell(std::string_view text) {
  try {
    return exec::wire::parse_cell_result_json(text);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

std::optional<exec::CellResult> tree_cell(std::string_view text) {
  try {
    return oracle::parse_cell_result(obs::json::parse(text));
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// Every field equal, samples compared as bit patterns (NaN payloads
/// included).
void expect_bit_identical(const exec::CellResult& got, const exec::CellResult& want,
                          const std::string& where) {
  EXPECT_EQ(got.unit, want.unit) << where;
  EXPECT_EQ(got.stop_reason, want.stop_reason) << where;
  EXPECT_EQ(got.warmup_discarded, want.warmup_discarded) << where;
  EXPECT_EQ(got.error, want.error) << where;
  EXPECT_EQ(got.attempts, want.attempts) << where;
  ASSERT_EQ(got.samples.size(), want.samples.size()) << where;
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.samples[i]),
              std::bit_cast<std::uint64_t>(want.samples[i]))
        << where << ", sample " << i;
  }
}

/// Calls `check` on every truncation of `canonical`, on every
/// substitution of a JSON-significant byte into its first `head` bytes
/// (where the fixed keys and their values sit; random damage rarely
/// turns a version 1 into a 2), and on 300 seeded mutants of each kind.
template <typename Check>
void for_each_mutant(const std::string& canonical, std::size_t head, std::uint64_t seed,
                     Check check) {
  for (std::size_t cut = 0; cut < canonical.size(); ++cut) {
    check(canonical.substr(0, cut), "cut " + std::to_string(cut));
  }
  for (std::size_t at = 0; at < std::min(canonical.size(), head); ++at) {
    for (const char c : std::string_view("0129af\"\\,:[]{} n-.")) {
      if (canonical[at] == c) continue;
      std::string bytes = canonical;
      bytes[at] = c;
      check(bytes, "byte " + std::string(1, c) + " at " + std::to_string(at));
    }
  }
  rng::Xoshiro256 gen(seed);
  for (int kind = 0; kind < fuzz::kMutationKinds; ++kind) {
    for (int i = 0; i < 300; ++i) {
      std::string bytes = canonical;
      const std::size_t at = fuzz::mutate(bytes, kind, gen);
      check(bytes, "kind " + std::to_string(kind) + " at " + std::to_string(at));
    }
  }
}

/// Real cell lines: a simulated pingpong cell, and a hand-made one with
/// a NaN payload, -0.0, a denormal, an escaped error text and no
/// samples.
std::vector<std::string> real_cell_lines() {
  const exec::Campaign campaign{campaign_spec()};
  const exec::Config config = campaign.config(1);
  exec::CellResult simulated =
      exec::SimBackend(backend_options()).run(config, campaign.seed_for(config, 0));
  exec::CellResult odd;
  odd.samples = {std::nan("0x5ca1ab1e"), -0.0, 4.9e-324, -std::nan("7")};
  odd.unit = "s";
  odd.stop_reason = "ci \"met\"";
  odd.error = "tab\there\nnewline";
  exec::CellResult empty;
  empty.error = "backend threw";
  return {exec::wire::cell_result_to_json(simulated), cell_canonical(),
          exec::wire::cell_result_to_json(odd), exec::wire::cell_result_to_json(empty)};
}

TEST(PullDecoder, CellLinesAgreeWithTheTreeOracleOnEveryMutant) {
  std::uint64_t seed = 0x63656c6c;
  for (const std::string& canonical : real_cell_lines()) {
    const std::optional<exec::CellResult> decoded = pull_cell(canonical);
    ASSERT_TRUE(decoded.has_value()) << canonical;
    EXPECT_EQ(exec::wire::cell_result_to_json(*decoded), canonical);
    std::size_t accepted = 0;
    // 256 bytes reach past the fixed keys into the first samples.
    for_each_mutant(canonical, 256, seed++, [&](const std::string& bytes, const std::string& where) {
      const std::optional<exec::CellResult> pull = pull_cell(bytes);
      const std::optional<exec::CellResult> tree = tree_cell(bytes);
      ASSERT_EQ(pull.has_value(), tree.has_value()) << where << ": " << bytes;
      if (pull) {
        ++accepted;
        expect_bit_identical(*pull, *tree, where);
      }
    });
    EXPECT_GT(accepted, 0u) << "no mutant decoded: the comparison of samples never ran";
  }
}

TEST(PullDecoder, HandMadeVariantsAgreeWithTheTreeOracle) {
  // Edits no single damaged byte reaches: other value kinds for
  // "samples", reordered, unknown and repeated members, other versions,
  // whitespace and escapes. The tree decided each one; the pull decoder
  // must decide the same and decode the same.
  const std::string head = R"("schema": "scibench.cell", "version": 1, "unit": "us", )"
                           R"("stop_reason": "fixed", "warmup_discarded": 2, "error": "")";
  const std::string samples = R"("samples": ["3ff8000000000000", "7ff80000deadbeef"])";
  const std::vector<std::pair<std::string, bool>> variants = {
      {"{" + head + ", " + samples + "}", true},
      {"{" + samples + ", " + head + "}", true},
      {"{\n\t" + head + " ,\r\n " + samples + " }\n", true},
      {"{" + head + R"(, "extra": {"a": [1, {"b": null}]}, )" + samples + "}", true},
      {"{" + head + ", " + samples + R"(, "unit": 5, "samples": "x"})", true},
      {"{" + head + R"(, "samples": null})", false},
      {"{" + head + R"(, "samples": {}})", false},
      {"{" + head + R"(, "samples": "3ff8000000000000"})", false},
      {"{" + head + R"(, "samples": [3.5]})", false},
      {"{" + head + R"(, "samples": ["3FF8000000000000"]})", false},
      {"{" + head + R"(, "samples": ["3ff800000000000"]})", false},
      {"{" + head + R"(, "samples": [)" + "\"\\u0033ff8000000000000\"]}", true},
      {"{" + head + ", " + samples + "} x", false},
      {"[" + head + "]", false},
  };
  for (const auto& [text, accepted] : variants) {
    const std::optional<exec::CellResult> pull = pull_cell(text);
    const std::optional<exec::CellResult> tree = tree_cell(text);
    EXPECT_EQ(tree.has_value(), accepted) << text;
    ASSERT_EQ(pull.has_value(), tree.has_value()) << text;
    if (pull) expect_bit_identical(*pull, *tree, text);
  }
  // Each variant with one required key renamed.
  for (const char* key : {"schema", "version", "unit", "stop_reason", "warmup_discarded",
                          "error", "samples"}) {
    std::string text = "{" + head + ", " + samples + "}";
    const std::string quoted = std::string("\"") + key + "\"";
    text.replace(text.find(quoted), quoted.size(), "\"renamed\"");
    EXPECT_FALSE(tree_cell(text).has_value()) << text;
    EXPECT_FALSE(pull_cell(text).has_value()) << text;
  }
  // Other versions, the version as a string, and an integral 1.0.
  for (const auto& [version, accepted] : std::vector<std::pair<std::string, bool>>{
           {"2", false}, {"\"1\"", false}, {"1.0", true}, {"null", false}, {"-1", false}}) {
    std::string text = "{" + head + ", " + samples + "}";
    const std::string one = "\"version\": 1";
    text.replace(text.find(one), one.size(), "\"version\": " + version);
    EXPECT_EQ(tree_cell(text).has_value(), accepted) << text;
    EXPECT_EQ(pull_cell(text).has_value(), accepted) << text;
  }
}

/// Writes `text` to `path`, replacing it.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(PullDecoder, JournalReplayAgreesWithTheTreeOracleOnEveryMutant) {
  // A real journal: header plus one cell record, written by
  // CampaignJournal itself.
  constexpr std::uint64_t kFingerprint = 0x6a6f75726e616cULL;
  const exec::Campaign campaign{campaign_spec()};
  const exec::Config config = campaign.config(3);
  const std::uint64_t cell_seed = campaign.seed_for(config, 1);
  exec::CellResult cell = exec::SimBackend(backend_options()).run(config, cell_seed);
  cell.samples.push_back(std::nan("0xbad"));  // a payload only hex keeps
  cell.attempts = 2;
  const std::string path = ::testing::TempDir() + "/pull_decoder.journal";
  std::remove(path.c_str());
  { exec::CampaignJournal(path, kFingerprint).append(config.index, 1, cell_seed, cell); }
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  }
  const std::size_t header_end = text.find('\n') + 1;
  const std::string header = text.substr(0, header_end);
  const std::string record = text.substr(header_end, text.size() - header_end - 1);

  // emit(parse(x)) == x: a replayed record re-appends to the same bytes.
  {
    const exec::CampaignJournal replayed(path, kFingerprint);
    const exec::CellResult* found = replayed.find(config.index, 1, cell_seed);
    ASSERT_NE(found, nullptr);
    expect_bit_identical(*found, cell, "canonical");
    std::remove(path.c_str());
    { exec::CampaignJournal(path, kFingerprint).append(config.index, 1, cell_seed, *found); }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(os.str(), text);
  }

  std::size_t accepted = 0;
  // The record's own members come before "result", whose object the
  // test above covers; 128 bytes reach into its fixed keys.
  for_each_mutant(record, 128, 0x7265636f7264ULL, [&](const std::string& bytes,
                                                      const std::string& where) {
    // Replay reads line by line, so an inserted newline splits the
    // record; a later record of the same cell replaces an earlier one.
    std::map<std::pair<std::size_t, std::size_t>, oracle::JournalCell> want;
    std::istringstream lines(bytes);
    for (std::string line; std::getline(lines, line);) {
      try {
        if (auto c = oracle::parse_journal_cell(line)) want[{c->config, c->rep}] = *c;
      } catch (const std::runtime_error&) {
      }
    }
    write_file(path, header + bytes + "\n");
    const exec::CampaignJournal journal(path, kFingerprint);
    ASSERT_EQ(journal.size(), want.size()) << where << ": " << bytes;
    for (const auto& [key, c] : want) {
      const exec::CellResult* got = journal.find(c.config, c.rep, c.seed);
      ASSERT_NE(got, nullptr) << where;
      expect_bit_identical(*got, c.result, where);
      ++accepted;
    }
  });
  std::remove(path.c_str());
  EXPECT_GT(accepted, 0u) << "no mutant replayed: the comparison of samples never ran";
}

}  // namespace
}  // namespace sci
