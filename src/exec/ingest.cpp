#include "exec/ingest.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace sci::exec {

namespace {

bool has_column(const std::vector<std::string>& cols, const std::string& name) {
  return std::find(cols.begin(), cols.end(), name) != cols.end();
}

std::size_t column_index(const std::vector<std::string>& cols, const std::string& name) {
  return static_cast<std::size_t>(
      std::find(cols.begin(), cols.end(), name) - cols.begin());
}

/// Value of "env.<key>: <value>" in the preserved raw header text, or
/// empty. Values round-trip through escape_header_text on export.
std::string header_env(const std::string& header_text, const std::string& key) {
  const std::string needle = "env." + key + ": ";
  std::size_t pos = 0;
  while (pos < header_text.size()) {
    std::size_t eol = header_text.find('\n', pos);
    if (eol == std::string::npos) eol = header_text.size();
    if (header_text.compare(pos, needle.size(), needle) == 0) {
      return core::unescape_header_text(
          header_text.substr(pos + needle.size(), eol - pos - needle.size()));
    }
    pos = eol + 1;
  }
  return {};
}

/// `text` as a decimal count, or nothing for junk. A sign is junk too
/// (strtoull would read "-1" as 2^64 - 1), and so is an overflow.
std::optional<std::size_t> parse_count(const std::string& text) {
  std::size_t n = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, n);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return n;
}

std::size_t header_env_count(const std::string& header_text, const std::string& key) {
  // Hand-edited junk degrades to 0 rather than aborting the report.
  return parse_count(header_env(header_text, key)).value_or(0);
}

/// A `config`/`rep` cell as an index. Casting a negative, fractional,
/// non-finite or huge double to std::size_t is undefined behaviour, so
/// anything but a non-negative integer below 2^53 is refused.
std::size_t key_cell(double v, const std::string& path, std::size_t row,
                     const char* column) {
  constexpr double kLimit = 9007199254740992.0;  // 2^53
  const bool in_range = v >= 0.0 && v < kLimit;  // false for NaN
  const std::size_t key = in_range ? static_cast<std::size_t>(v) : 0;
  if (!in_range || static_cast<double>(key) != v) {
    throw std::runtime_error("load_measurements: " + path + ": data row " +
                             std::to_string(row + 1) + ": '" + column +
                             "' is not a non-negative integer below 2^53");
  }
  return key;
}

}  // namespace

Ingested load_measurements(const std::string& path) {
  Ingested out{core::Dataset::load_csv(path), false, {}, 0, 0, {}, {}, 0, {}};
  const std::string& header = out.dataset.experiment().description;
  out.failed = header_env_count(header, "campaign.failed");
  out.interrupted = header_env_count(header, "campaign.interrupted");
  out.failed_cells = header_env(header, "campaign.failed_cells");
  out.stopping = header_env(header, "campaign.stopping");
  out.rounds = header_env_count(header, "campaign.rounds");
  // "6,4,12,..." -- per-config rep counts of a sequential campaign.
  // Hand-edited junk degrades to an empty list, like the counts above.
  const std::string counts = header_env(header, "campaign.rep_counts");
  std::size_t pos = 0;
  while (pos < counts.size()) {
    std::size_t comma = counts.find(',', pos);
    if (comma == std::string::npos) comma = counts.size();
    const std::optional<std::size_t> n = parse_count(counts.substr(pos, comma - pos));
    if (!n) {
      out.rep_counts.clear();
      break;
    }
    out.rep_counts.push_back(*n);
    pos = comma + 1;
  }
  const auto& cols = out.dataset.columns();
  out.campaign = has_column(cols, "config") && has_column(cols, "rep") &&
                 has_column(cols, "value") && has_column(cols, "sample");
  if (!out.campaign) return out;

  const std::size_t config_col = column_index(cols, "config");
  const std::size_t rep_col = column_index(cols, "rep");
  const std::size_t value_col = column_index(cols, "value");
  std::vector<std::size_t> factor_cols;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].rfind("f_", 0) == 0) factor_cols.push_back(i);
  }

  // Regroup long-form rows per (config, rep). An export lists each
  // run's rows together, so the map is consulted only when the key
  // changes; it keeps ingestion robust to externally sorted files.
  using Key = std::pair<std::size_t, std::size_t>;
  std::map<Key, std::size_t> index;
  std::optional<Key> current_key;
  std::size_t current = 0;
  for (std::size_t r = 0; r < out.dataset.rows(); ++r) {
    const auto row = out.dataset.row(r);
    const Key key(key_cell(row[config_col], path, r, "config"),
                  key_cell(row[rep_col], path, r, "rep"));
    if (key == current_key) {
      out.cells[current].values.push_back(row[value_col]);
      continue;
    }
    auto it = index.find(key);
    if (it == index.end()) {
      IngestedSeries series;
      series.config = key.first;
      series.rep = key.second;
      std::string label =
          "config " + std::to_string(key.first) + " rep " + std::to_string(key.second);
      if (!factor_cols.empty()) {
        label += " (";
        for (std::size_t f = 0; f < factor_cols.size(); ++f) {
          if (f) label += ' ';
          char buf[32];
          std::snprintf(buf, sizeof buf, "%g", row[factor_cols[f]]);
          label += cols[factor_cols[f]] + "=" + buf;
        }
        label += ')';
      }
      series.label = std::move(label);
      it = index.emplace(key, out.cells.size()).first;
      out.cells.push_back(std::move(series));
    }
    current_key = key;
    current = it->second;
    out.cells[current].values.push_back(row[value_col]);
  }
  // Cells were appended in first-appearance order; normalize to
  // (config, rep) order to match CampaignResult::cells.
  std::sort(out.cells.begin(), out.cells.end(),
            [](const IngestedSeries& a, const IngestedSeries& b) {
              return std::tie(a.config, a.rep) < std::tie(b.config, b.rep);
            });
  return out;
}

std::vector<ConfigSummary> summarize_configs(const Ingested& ingested, double p,
                                             double confidence,
                                             const stats::ExecPolicy& policy) {
  // Pool each config's replications; per-config rep counts vary under
  // sequential stopping, so the grouping comes from the rows themselves.
  std::map<std::size_t, std::pair<std::size_t, std::vector<double>>> configs;
  for (const auto& cell : ingested.cells) {
    auto& [reps, values] = configs[cell.config];
    ++reps;
    values.insert(values.end(), cell.values.begin(), cell.values.end());
  }

  std::vector<ConfigSummary> out;
  std::vector<std::vector<double>> groups;
  out.reserve(configs.size());
  groups.reserve(configs.size());
  for (auto& [config, group] : configs) {
    ConfigSummary cs;
    cs.config = config;
    cs.reps = group.first;
    out.push_back(cs);
    groups.push_back(std::move(group.second));
  }
  const auto summaries = stats::grouped_quantile_summary(groups, p, confidence, policy);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].summary = summaries[i];
  return out;
}

}  // namespace sci::exec
