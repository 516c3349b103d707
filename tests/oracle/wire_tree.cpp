#include "oracle/wire_tree.hpp"

#include <stdexcept>

#include "exec/wire.hpp"
#include "obs/json.hpp"

namespace sci::oracle {

namespace json = obs::json;

exec::CellResult parse_cell_result(const json::Value& root) {
  if (root.at("schema").as_string() != "scibench.cell") {
    throw std::runtime_error("oracle: expected schema \"scibench.cell\"");
  }
  if (root.at("version").as_size() != static_cast<std::size_t>(exec::wire::kVersion)) {
    throw std::runtime_error("oracle: unsupported version");
  }
  exec::CellResult result;
  result.unit = root.at("unit").as_string();
  result.stop_reason = root.at("stop_reason").as_string();
  result.warmup_discarded = root.at("warmup_discarded").as_size();
  result.error = root.at("error").as_string();
  const json::Value& samples = root.at("samples");
  if (samples.type != json::Value::Type::kArray) {
    throw std::runtime_error("oracle: \"samples\" must be an array");
  }
  result.samples.reserve(samples.array.size());
  for (const auto& s : samples.array) {
    result.samples.push_back(exec::wire::parse_hex_double(s.as_string()));
  }
  return result;
}

std::optional<JournalCell> parse_journal_cell(std::string_view line) {
  const json::Value record = json::parse(line);
  const std::string& kind = record.at("kind").as_string();
  const std::size_t config = record.at("config").as_size();
  if (kind == "stop") {
    (void)record.at("reps").as_size();
    (void)record.at("reason").as_string();
  }
  if (kind != "cell") return std::nullopt;
  JournalCell cell;
  cell.config = config;
  cell.rep = record.at("rep").as_size();
  cell.seed = exec::wire::parse_hex_u64(record.at("seed").as_string());
  cell.result = parse_cell_result(record.at("result"));
  cell.result.attempts = record.at("attempts").as_size();
  return cell;
}

}  // namespace sci::oracle
