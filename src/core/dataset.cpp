#include "core/dataset.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace sci::core {

Dataset::Dataset(Experiment experiment, std::vector<std::string> columns)
    : experiment_(std::move(experiment)), columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Dataset: at least one column");
  for (const auto& c : columns_) {
    // A separator or newline inside a column name would silently shift
    // every subsequent column on re-import; refuse it up front.
    if (c.find_first_of(",\n\r") != std::string::npos) {
      throw std::invalid_argument("Dataset: column name '" + c +
                                  "' contains a comma or newline");
    }
  }
  base_columns_ = columns_.size();
}

void Dataset::add_row(const std::vector<double>& row) {
  if (row.size() != columns_.size())
    throw std::invalid_argument("Dataset::add_row: arity mismatch");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Dataset::enable_provenance() {
  if (provenance_) return;
  if (rows_ != 0)
    throw std::logic_error("Dataset::enable_provenance: call before the first row");
  const auto& extra = obs::provenance_columns();
  columns_.insert(columns_.end(), extra.begin(), extra.end());
  provenance_ = true;
}

void Dataset::add_row(const std::vector<double>& row, const obs::SampleProvenance& prov) {
  if (!provenance_)
    throw std::logic_error("Dataset::add_row(prov): enable_provenance() first");
  if (row.size() != base_columns_)
    throw std::invalid_argument("Dataset::add_row: arity mismatch");
  const auto cells = obs::provenance_row(prov);
  data_.insert(data_.end(), row.begin(), row.end());
  data_.insert(data_.end(), cells.begin(), cells.end());
  ++rows_;
}

std::span<const double> Dataset::row(std::size_t i) const {
  if (i >= rows_) {
    throw std::out_of_range("Dataset::row: row " + std::to_string(i) + " of " +
                            std::to_string(rows_));
  }
  const std::size_t width = columns_.size();
  return {data_.data() + i * width, width};
}

std::vector<double> Dataset::column(const std::string& name) const {
  std::size_t idx = columns_.size();
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) {
      idx = i;
      break;
    }
  }
  if (idx == columns_.size())
    throw std::out_of_range("Dataset::column: no column '" + name + "'");
  const std::size_t width = columns_.size();
  std::vector<double> out;
  out.reserve(rows_);
  for (std::size_t at = idx; at < data_.size(); at += width) out.push_back(data_[at]);
  return out;
}

namespace {

/// Longest printf("%.17g") text of a double: "-1.2345678901234567e-308".
constexpr std::size_t kMaxCellChars = 24;
/// Bytes write_csv buffers between os.write calls.
constexpr std::size_t kWriteChunkBytes = std::size_t{1} << 16;
/// Bytes load_csv reads per fread.
constexpr std::size_t kReadBlockBytes = std::size_t{1} << 16;

/// Writes `v` exactly as printf("%.17g", v) would. Exact integers below
/// 1e15 in magnitude take the integer path: %.17g prints an integer under
/// 10^17 in fixed notation with no fraction, so its text is the integer's
/// digits; below 2^53 (about 9.007e15) every integer is a double and the
/// int64 round trip below is exact, and 1e15 sits under both limits.
/// -0.0 passes the integer test but prints "-0", so it takes the general
/// path, as do NaN and the infinities (every comparison fails).
char* format_cell(char* first, double v) {
  char* const last = first + kMaxCellChars;
  constexpr double kIntegerPathBound = 1e15;
  if (v > -kIntegerPathBound && v < kIntegerPathBound) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      return std::to_chars(first, last, i).ptr;
    }
  }
  return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
}

}  // namespace

void Dataset::write_csv(std::ostream& os) const {
  std::string chunk;
  chunk.reserve(2 * kWriteChunkBytes);
  const auto flush = [&] {
    os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    chunk.clear();
  };

  const std::string header = experiment_.to_header();
  for (std::size_t pos = 0; pos < header.size();) {
    std::size_t eol = header.find('\n', pos);
    if (eol == std::string::npos) eol = header.size();
    chunk += "# ";
    chunk.append(header, pos, eol - pos);
    chunk += '\n';
    pos = eol + 1;
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    chunk += columns_[i];
    chunk += i + 1 < columns_.size() ? ',' : '\n';
  }
  flush();

  const std::size_t width = columns_.size();
  char cell[kMaxCellChars];
  for (std::size_t at = 0; at < data_.size(); at += width) {
    for (std::size_t c = 0; c < width; ++c) {
      chunk.append(cell, format_cell(cell, data_[at + c]));
      chunk += c + 1 < width ? ',' : '\n';
    }
    if (chunk.size() >= kWriteChunkBytes) flush();
  }
  flush();
}

void Dataset::save_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("Dataset::save_csv: cannot open " + path);
  write_csv(os);
  os.flush();
  // A full disk or revoked permission surfaces here, not as a silently
  // truncated data file.
  if (!os) throw std::runtime_error("Dataset::save_csv: write failed for " + path);
}

namespace {

/// The '\n'-separated lines of a file, read in blocks. A last line
/// without a newline is still a line; the text after a final '\n' is not.
class LineReader {
 public:
  explicit LineReader(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "rb"), &std::fclose) {
    if (!file_) throw std::runtime_error("Dataset::load_csv: cannot open " + path);
  }

  /// The next line, without its '\n'; valid until the next call.
  bool next(std::string_view& line) {
    for (;;) {
      const void* nl = std::memchr(buf_.data() + scanned_, '\n', buf_.size() - scanned_);
      if (nl != nullptr) {
        const auto end =
            static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
        line = std::string_view(buf_.data() + pos_, end - pos_);
        pos_ = scanned_ = end + 1;
        return true;
      }
      if (eof_) {
        if (pos_ == buf_.size()) return false;
        line = std::string_view(buf_.data() + pos_, buf_.size() - pos_);
        pos_ = scanned_ = buf_.size();
        return true;
      }
      // Keep the partial line and append the next block after it.
      buf_.erase(0, pos_);
      pos_ = 0;
      scanned_ = buf_.size();
      buf_.resize(scanned_ + kReadBlockBytes);
      const std::size_t n =
          std::fread(buf_.data() + scanned_, 1, kReadBlockBytes, file_.get());
      buf_.resize(scanned_ + n);
      if (n < kReadBlockBytes) {
        if (std::ferror(file_.get()))
          throw std::runtime_error("Dataset::load_csv: cannot read " + path_);
        eof_ = true;
      }
    }
  }

 private:
  std::string path_;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  std::string buf_;
  std::size_t pos_ = 0;      ///< start of the next line in buf_
  std::size_t scanned_ = 0;  ///< buf_[pos_, scanned_) holds no '\n'
  bool eof_ = false;
};

std::string location(const std::string& path, std::size_t lineno) {
  return "Dataset::load_csv: " + path + ":" + std::to_string(lineno) + ": ";
}

/// Strict numeric cell parse; accepts what write_csv emits (decimal
/// doubles, inf, nan). Positions are 1-based for error messages.
double parse_cell(const char* first, const char* last, const std::string& path,
                  std::size_t lineno, std::size_t column) {
  double value = 0.0;
  const char* begin = first;
  const char* end = last;
  // Tolerate surrounding spaces (hand-edited files) but nothing else.
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  while (end > begin && (end[-1] == ' ' || end[-1] == '\t' || end[-1] == '\r')) --end;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || begin == end) {
    throw std::runtime_error(location(path, lineno) + "column " + std::to_string(column) +
                             ": malformed numeric cell '" + std::string(first, last) + "'");
  }
  return value;
}

}  // namespace

Dataset Dataset::load_csv(const std::string& path) {
  LineReader reader(path);

  std::string_view line;
  std::size_t lineno = 0;
  std::vector<std::string> cols;
  // Header comments are provenance for humans/R; keep the raw text in
  // the description so round-trips do not silently drop it.
  std::string header_text;
  while (reader.next(line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.front() == '#') {
      header_text += line.substr(line.size() > 1 && line[1] == ' ' ? 2 : 1);
      header_text += '\n';
      continue;
    }
    // First non-comment line: column names. Every comma separates two
    // names, so a trailing comma adds an empty last name.
    for (std::size_t pos = 0;;) {
      const std::size_t comma = std::min(line.find(',', pos), line.size());
      std::string_view name = line.substr(pos, comma - pos);
      if (!name.empty() && name.back() == '\r') name.remove_suffix(1);
      cols.emplace_back(name);
      if (comma == line.size()) break;
      pos = comma + 1;
    }
    break;
  }
  if (cols.empty()) {
    throw std::runtime_error("Dataset::load_csv: " + path + ": no column header line");
  }
  Experiment exp;
  exp.name = "loaded:" + path;
  exp.description = std::move(header_text);

  Dataset ds = [&] {
    try {
      return Dataset(std::move(exp), std::move(cols));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(location(path, lineno) + e.what());
    }
  }();
  const std::size_t width = ds.columns_.size();
  while (reader.next(line)) {
    ++lineno;
    if (line.empty() || line.front() == '#') continue;
    const char* cell = line.data();
    const char* const end = cell + line.size();
    std::size_t cells = 0;
    for (;;) {
      const char* comma = static_cast<const char*>(
          std::memchr(cell, ',', static_cast<std::size_t>(end - cell)));
      if (comma == nullptr) comma = end;
      const double value = parse_cell(cell, comma, path, lineno, ++cells);
      if (cells <= width) ds.data_.push_back(value);
      if (comma == end) break;
      cell = comma + 1;
    }
    if (cells != width) {
      throw std::runtime_error(location(path, lineno) + "expected " + std::to_string(width) +
                               " cells, got " + std::to_string(cells));
    }
    ++ds.rows_;
  }
  return ds;
}

}  // namespace sci::core
