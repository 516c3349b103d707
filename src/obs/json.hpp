// Minimal canonical JSON for the observability pipeline.
//
// Everything machine-readable this repo emits about itself -- bench
// reports (obs/bench_report.hpp), campaign metrics snapshots
// (exec/progress.hpp), daemon metrics, the wire and journal records
// (exec/wire.hpp), the scibench_ci history store, and Chrome traces
// (obs/trace.hpp, read back by obs/trace_read.hpp) -- goes through
// this one emitter/reader pair, so "emit -> parse -> re-emit" is
// byte-identical by construction:
//
//   * numbers are written with std::to_chars (shortest representation
//     that round-trips the exact double), so re-emitting a parsed value
//     reproduces the original bytes;
//   * object keys keep insertion order (emitters write a fixed schema
//     order; no std::map reshuffling);
//   * non-finite doubles are emitted as null (JSON has no NaN) and
//     parse back as quiet NaN.
//
// This is deliberately a subset: UTF-8 pass-through, no \u escapes on
// output (inputs with \uXXXX below 0x80 are accepted), doubles only.
// It exists so the repo needs no third-party JSON dependency.
//
// Reading has one tokenizer, Reader: a pull cursor that hands out one
// token at a time and builds nothing. parse() is a loop over a Reader
// that assembles a Value tree; a hot decoder (the wire's cell results,
// whose samples arrays run to thousands of strings) walks a Reader
// directly and stores each token where it belongs, with no Value per
// element. Both see the same grammar, the same errors and the same
// depth bound.
//
// Every input is untrusted: malformed text, and nesting deeper than
// kMaxDepth, throw std::runtime_error (with a byte offset) rather than
// crash.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sci::obs::json {

struct Value;
using Member = std::pair<std::string, Value>;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Member> object;  ///< insertion order preserved
  std::vector<Value> array;

  [[nodiscard]] bool is_null() const noexcept { return type == Type::kNull; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  /// Member that must exist (throws std::runtime_error naming the key).
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Typed accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] std::size_t as_size() const;
};

/// Deepest array/object nesting a Reader (and so parse()) accepts: far
/// above the few levels any schema the repo emits uses, far below what
/// exhausts the stack of a recursive consumer.
inline constexpr std::size_t kMaxDepth = 64;

/// Pull cursor over the tokens of one JSON document in `text`, which
/// must outlive the Reader. Every call skips leading whitespace, reads
/// one token, and throws std::runtime_error ("json: <what> at offset
/// N") on malformed input or a token of another kind. A consumer walks
/// a document like this:
///
///   Reader in(text);
///   in.begin_object();
///   std::string_view key;
///   while (in.next_member(key)) {
///     if (key == "n") n = in.size(); else in.skip();
///   }
///   in.finish();
///
/// Strings come back as views: into `text` when the string has no
/// escapes, else into a buffer the Reader reuses, so a view (and a
/// member key) is valid only until the next call.
class Reader {
 public:
  explicit Reader(std::string_view text) noexcept : text_(text) {}

  /// Kind of the next value, without consuming it (a number for any
  /// byte that starts no other value; number() then rejects it).
  [[nodiscard]] Value::Type peek();

  /// Consumes '{' / '['. Throws past kMaxDepth open containers.
  void begin_object();
  void begin_array();
  /// Steps to the next member of the innermost open object: false (and
  /// the object closed) at '}', else true with `key` read and the ':'
  /// consumed, so the member's value is next.
  [[nodiscard]] bool next_member(std::string_view& key);
  /// next_member() for a fixed schema of at most 64 `keys`: steps to
  /// the next member whose key is keys[i] and returns i, or keys.size()
  /// at '}'. Members with other keys, and repeats (bit i of `seen` set),
  /// are skipped: the first occurrence counts, as with Value::find.
  /// Sets bit i of `seen`.
  [[nodiscard]] std::size_t next_member(std::span<const std::string_view> keys,
                                        std::uint64_t& seen);
  /// Steps to the next element of the innermost open array: false (and
  /// the array closed) at ']', else true with the element next.
  [[nodiscard]] bool next_element();

  [[nodiscard]] std::string_view string();
  /// A JSON number (not null).
  [[nodiscard]] double number();
  /// A JSON number that is a non-negative integer below 2^64.
  [[nodiscard]] std::size_t size();
  [[nodiscard]] bool boolean();
  void null();
  /// Consumes the next value, of any kind, checking its syntax.
  void skip();
  /// Ends the document: only whitespace may follow the last value.
  void finish();

 private:
  [[noreturn]] void fail(std::size_t offset, const std::string& what) const;
  void skip_ws() noexcept;
  char peek_char();
  void expect(char c);
  void close_container();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  /// True right after begin_*: the next next_* call needs no comma.
  bool first_ = false;
  std::string unescaped_;  ///< backing store of escaped strings
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected) into a tree, through a Reader: throws what the
/// Reader throws, including for nesting deeper than kMaxDepth.
[[nodiscard]] Value parse(std::string_view text);

/// Throws std::runtime_error naming the first keys[i] whose bit is set
/// in `required` but not in `seen` (as filled by Reader::next_member).
void require_keys(std::span<const std::string_view> keys, std::uint64_t seen,
                  std::uint64_t required);

/// `v` as an int when it is an integer in int's range, else nullopt.
/// Converting any other double to int is undefined behaviour, so it
/// never is.
[[nodiscard]] std::optional<int> exact_int(double v);

/// Canonical number emit: shortest round-trip form via std::to_chars;
/// NaN/inf become "null".
[[nodiscard]] std::string dump_number(double v);
/// Canonical unsigned emit (no exponent form, ever).
[[nodiscard]] std::string dump_size(std::size_t v);
/// Appends `text` as a quoted JSON string (escapes ", \, and control
/// bytes; everything else passes through as UTF-8).
void append_quoted(std::string& out, std::string_view text);
[[nodiscard]] std::string quoted(std::string_view text);

}  // namespace sci::obs::json
