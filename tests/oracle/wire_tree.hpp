// Reference oracle for the pull-reader decoders: the tree walks they
// replaced. Each parses with obs::json::parse into a Value tree, then
// looks members up with Value::at (first occurrence, any order), so
// the streaming decoders must accept, reject and decode exactly what
// these do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "exec/backend.hpp"

namespace sci::obs::json {
struct Value;
}

namespace sci::oracle {

/// Decodes a parsed "scibench.cell" object (the wire::read_cell_result
/// contract); throws std::runtime_error on a schema, key or type
/// mismatch.
[[nodiscard]] exec::CellResult parse_cell_result(const obs::json::Value& root);

/// One campaign-journal cell record line, as journal replay keeps it.
struct JournalCell {
  std::size_t config = 0;
  std::size_t rep = 0;
  std::uint64_t seed = 0;
  exec::CellResult result;  ///< attempts filled from the record
};

/// Replays one journal record line the way the tree-walking journal
/// did: a cell record yields its cell, any other well-formed record
/// nullopt; a malformed line throws std::runtime_error.
[[nodiscard]] std::optional<JournalCell> parse_journal_cell(std::string_view line);

}  // namespace sci::oracle
