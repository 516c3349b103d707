#include "obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <limits>

namespace sci::obs::json {

namespace {

/// `v` as a std::size_t when it is a non-negative integer below 2^64.
/// Converting any other double to std::size_t is undefined behaviour,
/// so it never is.
std::optional<std::size_t> exact_size(double v) {
  static const double kLimit = std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
  if (!(v >= 0.0 && v < kLimit) || v != std::floor(v)) return std::nullopt;
  return static_cast<std::size_t>(v);
}

}  // namespace

void Reader::fail(std::size_t offset, const std::string& what) const {
  throw std::runtime_error("json: " + what + " at offset " + std::to_string(offset));
}

void Reader::skip_ws() noexcept {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char Reader::peek_char() {
  skip_ws();
  if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
  return text_[pos_];
}

void Reader::expect(char c) {
  if (peek_char() != c) fail(pos_, std::string("expected '") + c + "'");
  ++pos_;
}

Value::Type Reader::peek() {
  switch (peek_char()) {
    case '{': return Value::Type::kObject;
    case '[': return Value::Type::kArray;
    case '"': return Value::Type::kString;
    case 't':
    case 'f': return Value::Type::kBool;
    case 'n': return Value::Type::kNull;
    default: return Value::Type::kNumber;
  }
}

void Reader::begin_object() {
  expect('{');
  if (++depth_ > kMaxDepth) {
    fail(pos_ - 1, "nesting deeper than " + std::to_string(kMaxDepth));
  }
  first_ = true;
}

void Reader::begin_array() {
  expect('[');
  if (++depth_ > kMaxDepth) {
    fail(pos_ - 1, "nesting deeper than " + std::to_string(kMaxDepth));
  }
  first_ = true;
}

// Leaving a container resumes its parent after a value, so the parent's
// next member or element needs its comma.
void Reader::close_container() {
  ++pos_;
  --depth_;
  first_ = false;
}

bool Reader::next_member(std::string_view& key) {
  const char c = peek_char();
  if (c == '}') {
    close_container();
    return false;
  }
  if (!first_) {
    if (c != ',') fail(pos_, "expected ',' or '}'");
    ++pos_;
  }
  first_ = false;
  key = string();
  expect(':');
  return true;
}

std::size_t Reader::next_member(std::span<const std::string_view> keys,
                                std::uint64_t& seen) {
  std::string_view key;
  while (next_member(key)) {
    std::size_t i = 0;
    while (i < keys.size() && keys[i] != key) ++i;
    if (i < keys.size() && (seen & (std::uint64_t{1} << i)) == 0) {
      seen |= std::uint64_t{1} << i;
      return i;
    }
    skip();
  }
  return keys.size();
}

bool Reader::next_element() {
  const char c = peek_char();
  if (c == ']') {
    close_container();
    return false;
  }
  if (!first_) {
    if (c != ',') fail(pos_, "expected ',' or ']'");
    ++pos_;
  }
  first_ = false;
  return true;
}

std::string_view Reader::string() {
  expect('"');
  // The common case has no escapes: the string is a view of the input.
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') ++pos_;
  if (pos_ >= text_.size()) fail(pos_, "unterminated string");
  if (text_[pos_] == '"') {
    ++pos_;
    return text_.substr(start, pos_ - 1 - start);
  }

  unescaped_.assign(text_.substr(start, pos_ - start));
  for (;;) {
    if (pos_ >= text_.size()) fail(pos_, "unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return unescaped_;
    if (c != '\\') {
      unescaped_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': unescaped_.push_back('"'); break;
      case '\\': unescaped_.push_back('\\'); break;
      case '/': unescaped_.push_back('/'); break;
      case 'b': unescaped_.push_back('\b'); break;
      case 'f': unescaped_.push_back('\f'); break;
      case 'n': unescaped_.push_back('\n'); break;
      case 'r': unescaped_.push_back('\r'); break;
      case 't': unescaped_.push_back('\t'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail(pos_ - 1, "bad \\u escape digit");
        }
        // The emitter never produces \u escapes; accept the ASCII
        // range on input so hand-written files still parse.
        if (code > 0x7f) fail(pos_ - 4, "\\u escape above ASCII unsupported");
        unescaped_.push_back(static_cast<char>(code));
        break;
      }
      default:
        fail(pos_ - 1, "bad escape");
    }
  }
}

double Reader::number() {
  (void)peek_char();
  const std::size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
        c == '-') {
      ++pos_;
    } else {
      break;
    }
  }
  if (pos_ == start) fail(start, "expected a value");
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, out);
  if (ec != std::errc{} || ptr != text_.data() + pos_) fail(start, "bad number");
  return out;
}

std::size_t Reader::size() {
  (void)peek_char();
  const std::size_t start = pos_;
  const std::optional<std::size_t> v = exact_size(number());
  if (!v) fail(start, "expected a non-negative integer");
  return *v;
}

bool Reader::boolean() {
  const char c = peek_char();
  const std::string_view literal = c == 't' ? "true" : "false";
  if (text_.substr(pos_, literal.size()) != literal) fail(pos_, "bad literal");
  pos_ += literal.size();
  return c == 't';
}

void Reader::null() {
  if (peek_char() != 'n' || text_.substr(pos_, 4) != "null") fail(pos_, "bad literal");
  pos_ += 4;
}

void Reader::skip() {
  switch (peek()) {
    case Value::Type::kObject: {
      begin_object();
      std::string_view key;
      while (next_member(key)) skip();
      return;
    }
    case Value::Type::kArray:
      begin_array();
      while (next_element()) skip();
      return;
    case Value::Type::kString: (void)string(); return;
    case Value::Type::kBool: (void)boolean(); return;
    case Value::Type::kNull: null(); return;
    case Value::Type::kNumber: (void)number(); return;
  }
}

void Reader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail(pos_, "trailing garbage");
}

namespace {

/// One value from `in` as a tree. Recursion is bounded by the Reader's
/// depth check in begin_object/begin_array.
Value read_value(Reader& in) {
  Value v;
  v.type = in.peek();
  switch (v.type) {
    case Value::Type::kObject: {
      in.begin_object();
      std::string_view key;
      while (in.next_member(key)) {
        std::string name(key);  // `key` may not survive reading the value
        v.object.emplace_back(std::move(name), read_value(in));
      }
      break;
    }
    case Value::Type::kArray:
      in.begin_array();
      while (in.next_element()) v.array.push_back(read_value(in));
      break;
    case Value::Type::kString: v.string = in.string(); break;
    case Value::Type::kBool: v.boolean = in.boolean(); break;
    case Value::Type::kNull: in.null(); break;
    case Value::Type::kNumber: v.number = in.number(); break;
  }
  return v;
}

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  return *v;
}

double Value::as_number() const {
  if (type == Type::kNull) return std::numeric_limits<double>::quiet_NaN();
  if (type != Type::kNumber) throw std::runtime_error("json: expected a number");
  return number;
}

const std::string& Value::as_string() const {
  if (type != Type::kString) throw std::runtime_error("json: expected a string");
  return string;
}

std::size_t Value::as_size() const {
  const std::optional<std::size_t> v = exact_size(as_number());
  if (!v) throw std::runtime_error("json: expected a non-negative integer");
  return *v;
}

void require_keys(std::span<const std::string_view> keys, std::uint64_t seen,
                  std::uint64_t required) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    if ((required & bit) != 0 && (seen & bit) == 0) {
      throw std::runtime_error("json: missing key '" + std::string(keys[i]) + "'");
    }
  }
}

std::optional<int> exact_int(double v) {
  if (!(v >= std::numeric_limits<int>::min() && v <= std::numeric_limits<int>::max()) ||
      v != std::floor(v)) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

Value parse(std::string_view text) {
  Reader in(text);
  Value v = read_value(in);
  in.finish();
  return v;
}

std::string dump_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "null";  // cannot happen for finite doubles
  return std::string(buf, ptr);
}

std::string dump_size(std::size_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, ptr);
}

void append_quoted(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  append_quoted(out, text);
  return out;
}

}  // namespace sci::obs::json
