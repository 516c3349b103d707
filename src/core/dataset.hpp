// Tabular dataset with documented provenance.
//
// LibSciBench's "low-overhead data collection mechanism produces
// datasets that can be read directly with established statistical tools
// such as GNU R" -- this is that layer: append rows during measurement,
// write an R/pandas-readable CSV whose '#' header embeds the full
// Experiment description (Rule 9), so a data file never gets separated
// from its setup documentation.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/provenance.hpp"

namespace sci::core {

class Dataset {
 public:
  Dataset(Experiment experiment, std::vector<std::string> columns);

  /// Appends one observation; size must match the column count.
  void add_row(const std::vector<double>& row);

  /// Reserves storage for `rows` observations in total.
  void reserve(std::size_t rows) { data_.reserve(rows * columns_.size()); }

  /// Widens the schema with obs::provenance_columns() (trace id +
  /// counter deltas). Call before the first row; rows added afterwards
  /// must use the provenance overload of add_row.
  void enable_provenance();
  [[nodiscard]] bool provenance_enabled() const noexcept { return provenance_; }

  /// Appends one observation plus its provenance cells. `row` carries
  /// only the measurement columns; the provenance columns are filled
  /// from `prov`.
  void add_row(const std::vector<double>& row, const obs::SampleProvenance& prov);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept { return columns_; }
  [[nodiscard]] const Experiment& experiment() const noexcept { return experiment_; }
  /// Row `i`; throws std::out_of_range past the last row. The view is
  /// invalidated by the next add_row.
  [[nodiscard]] std::span<const double> row(std::size_t i) const;

  /// One column as a series.
  [[nodiscard]] std::vector<double> column(const std::string& name) const;

  /// CSV with '#'-prefixed experiment header. R: read.csv(f, comment.char="#").
  /// Every cell is printf("%.17g") text, so a reload is bit-exact.
  void write_csv(std::ostream& os) const;
  void save_csv(const std::string& path) const;

  /// Parses a CSV produced by write_csv (header comments are skipped).
  /// Malformed input throws std::runtime_error naming the file and, for
  /// a bad column line or row, its line number.
  [[nodiscard]] static Dataset load_csv(const std::string& path);

 private:
  Experiment experiment_;
  std::vector<std::string> columns_;
  std::vector<double> data_;  ///< row-major, columns_.size() cells per row
  std::size_t rows_ = 0;
  bool provenance_ = false;
  std::size_t base_columns_ = 0;  ///< column count before provenance widening
};

}  // namespace sci::core
