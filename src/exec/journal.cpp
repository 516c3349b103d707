#include "exec/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "exec/wire.hpp"
#include "obs/json.hpp"
#include "rng/xoshiro.hpp"

namespace sci::exec {

namespace json = obs::json;

namespace {

constexpr const char* kSchema = "scibench.journal";
constexpr std::size_t kVersion = 3;
/// Versions 1 and 2 were space-separated text under this header; they
/// are refused by name rather than misread.
constexpr std::string_view kTextHeaderPrefix = "# scibench campaign journal ";

std::uint64_t mix_bytes(std::uint64_t state, const std::string& text) {
  state = rng::splitmix64_next(state) ^ text.size();
  for (unsigned char c : text) state = rng::splitmix64_next(state) ^ c;
  return state;
}

/// Throws unless `line` is the header of a current-version journal
/// written under `fingerprint`.
void check_header(const std::string& path, const std::string& line,
                  std::uint64_t fingerprint) {
  const auto refuse = [&path](const std::string& why) {
    throw std::runtime_error("CampaignJournal: '" + path + "' " + why);
  };
  if (line.rfind(kTextHeaderPrefix, 0) == 0) {
    const std::string old = line.substr(kTextHeaderPrefix.size(), 2);
    refuse("is a text-format " + old +
           " campaign journal; only JSON-line journals (version " +
           std::to_string(kVersion) +
           ") can be resumed -- rerun the campaign into a fresh journal");
  }
  std::string schema, fp;
  std::size_t version = 0;
  try {
    const json::Value header = json::parse(line);
    schema = header.at("schema").as_string();
    version = header.at("version").as_size();
    fp = header.at("fingerprint").as_string();
  } catch (const std::runtime_error&) {
    refuse("exists but is not a campaign journal");
  }
  if (schema != kSchema) refuse("exists but is not a campaign journal");
  if (version != kVersion) {
    refuse("is campaign journal version " + std::to_string(version) +
           "; this build reads version " + std::to_string(kVersion));
  }
  if (fp != wire::hex_u64(fingerprint)) {
    refuse("was written by a different campaign/backend (fingerprint mismatch); "
           "refusing to resume from it");
  }
}

/// The members of one cell or stop record line.
struct Record {
  std::string kind;
  std::size_t config = 0;
  std::size_t rep = 0;
  std::uint64_t seed = 0;
  std::size_t attempts = 0;
  CellResult result;
  std::size_t reps = 0;
  std::string reason;
};

/// Reads one record line in a single pass, the cell result's samples
/// straight into `result` (wire::read_cell_result). Every known member
/// is read with its type whatever the kind; the kind decides which must
/// be present. Throws std::runtime_error on a torn or malformed line.
Record read_record(std::string_view line) {
  enum Key : std::size_t { kKind, kConfig, kRep, kSeed, kAttempts, kResult, kReps, kReason };
  static constexpr std::string_view kKeys[] = {"kind",     "config", "rep",  "seed",
                                               "attempts", "result", "reps", "reason"};
  const auto bits = [](std::initializer_list<Key> keys) {
    std::uint64_t mask = 0;
    for (const Key k : keys) mask |= std::uint64_t{1} << k;
    return mask;
  };
  Record r;
  std::uint64_t seen = 0;
  json::Reader in(line);
  in.begin_object();
  for (std::size_t key = 0; (key = in.next_member(kKeys, seen)) != std::size(kKeys);) {
    switch (key) {
      case kKind: r.kind = in.string(); break;
      case kConfig: r.config = in.size(); break;
      case kRep: r.rep = in.size(); break;
      case kSeed: r.seed = wire::parse_hex_u64(in.string()); break;
      case kAttempts: r.attempts = in.size(); break;
      case kResult: r.result = wire::read_cell_result(in); break;
      case kReps: r.reps = in.size(); break;
      case kReason: r.reason = in.string(); break;
    }
  }
  in.finish();
  json::require_keys(kKeys, seen, bits({kKind, kConfig}));
  if (r.kind == "cell") {
    json::require_keys(kKeys, seen, bits({kRep, kSeed, kAttempts, kResult}));
  } else if (r.kind == "stop") {
    json::require_keys(kKeys, seen, bits({kReps, kReason}));
  }
  return r;
}

/// Writes one line and flushes it before returning, so a crash leaves
/// at most one torn line at the tail.
void write_line(std::FILE* file, std::string& line) {
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), file);
  std::fflush(file);
}

}  // namespace

std::uint64_t CampaignJournal::fingerprint(const Campaign& campaign,
                                           const std::string& backend_name) {
  const CampaignSpec& spec = campaign.spec();
  std::uint64_t state = 0x9a5c1b3a0d2e4f17ULL;
  state = mix_bytes(state, spec.name);
  state = rng::splitmix64_next(state) ^ spec.seed;
  state = rng::splitmix64_next(state) ^ spec.replications;
  state = rng::splitmix64_next(state) ^ campaign.config_count();
  state = mix_bytes(state, backend_name);
  // Sequential campaigns mix the full policy: a journal written under a
  // different CI target / rep bounds would replay into different stop
  // decisions, so it must refuse to resume. Fixed-mode fingerprints
  // ignore the policy.
  if (spec.stopping.sequential()) state = mix_bytes(state, spec.stopping.describe());
  return rng::splitmix64_next(state);
}

CampaignJournal::CampaignJournal(std::string path, std::uint64_t fingerprint)
    : path_(std::move(path)) {
  // Replay pass: read whatever a previous (possibly killed) run left
  // behind. A line that fails to parse (no closing brace, truncated
  // token) or parses with the wrong shape is the torn tail of an
  // interrupted append; it is skipped -- not treated as end-of-records,
  // because a healed journal keeps appending valid records AFTER the
  // scar -- and the resumed run simply re-executes that cell.
  bool has_header = false;
  bool ends_with_newline = true;
  {
    std::ifstream in(path_);
    std::string line;
    while (in && std::getline(in, line)) {
      ends_with_newline = !in.eof();
      if (!has_header) {
        check_header(path_, line, fingerprint);
        has_header = true;
        continue;
      }
      try {
        Record record = read_record(line);
        if (record.kind == "cell") {
          record.result.attempts = record.attempts;
          records_[{record.config, record.rep}] = {record.seed, std::move(record.result)};
        } else if (record.kind == "stop") {
          stops_[record.config] = StopRecord{record.reps, std::move(record.reason)};
        }
      } catch (const std::runtime_error&) {
        // Torn or malformed record: skipped, as described above.
      }
    }
  }

  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("CampaignJournal: cannot open '" + path_ +
                             "' for appending: " + std::strerror(errno));
  }
  if (!has_header) {
    std::string header = "{\"schema\": ";
    json::append_quoted(header, kSchema);
    header += ", \"version\": " + json::dump_size(kVersion) + ", \"fingerprint\": ";
    json::append_quoted(header, wire::hex_u64(fingerprint));
    header += "}";
    write_line(file_, header);
  } else if (!ends_with_newline) {
    // Heal a torn tail so the next record starts on its own line
    // instead of gluing onto the scar.
    std::fputc('\n', file_);
    std::fflush(file_);
  }
}

CampaignJournal::~CampaignJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

const CellResult* CampaignJournal::find(std::size_t config_index, std::size_t rep,
                                        std::uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find({config_index, rep});
  if (it == records_.end() || it->second.first != seed) return nullptr;
  return &it->second.second;
}

void CampaignJournal::append(std::size_t config_index, std::size_t rep,
                             std::uint64_t seed, const CellResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  line_.clear();  // keeps the capacity of earlier appends
  line_ += "{\"kind\": \"cell\", \"config\": " + json::dump_size(config_index);
  line_ += ", \"rep\": " + json::dump_size(rep) + ", \"seed\": ";
  json::append_quoted(line_, wire::hex_u64(seed));
  line_ += ", \"attempts\": " + json::dump_size(result.attempts) + ", \"result\": ";
  wire::append_cell_result(line_, result);
  line_ += "}";
  write_line(file_, line_);
  records_[{config_index, rep}] = {seed, result};
}

const CampaignJournal::StopRecord* CampaignJournal::find_stop(
    std::size_t config_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stops_.find(config_index);
  return it == stops_.end() ? nullptr : &it->second;
}

void CampaignJournal::append_stop(std::size_t config_index, std::size_t reps,
                                  const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  line_.clear();  // keeps the capacity of earlier appends
  line_ += "{\"kind\": \"stop\", \"config\": " + json::dump_size(config_index);
  line_ += ", \"reps\": " + json::dump_size(reps) + ", \"reason\": ";
  json::append_quoted(line_, reason);
  line_ += "}";
  write_line(file_, line_);
  stops_[config_index] = StopRecord{reps, reason};
}

std::size_t CampaignJournal::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

}  // namespace sci::exec
