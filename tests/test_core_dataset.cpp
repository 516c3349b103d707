#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/dataset.hpp"
#include "rng/xoshiro.hpp"

namespace sci::core {
namespace {

Experiment make_experiment() {
  Experiment e;
  e.name = "latency_sweep";
  e.set("machine", "dora-sim");
  e.add_factor("bytes", {"64", "4096"});
  return e;
}

TEST(Dataset, StoresRowsAndColumns) {
  Dataset ds(make_experiment(), {"bytes", "latency_us"});
  ds.add_row({64.0, 1.7});
  ds.add_row({4096.0, 2.4});
  EXPECT_EQ(ds.rows(), 2u);
  EXPECT_EQ(ds.column("latency_us"), (std::vector<double>{1.7, 2.4}));
  EXPECT_EQ(ds.row(1)[0], 4096.0);
  EXPECT_EQ(ds.row(1).size(), 2u);
  EXPECT_THROW((void)ds.row(2), std::out_of_range);
}

TEST(Dataset, ArityAndColumnErrors) {
  Dataset ds(make_experiment(), {"a", "b"});
  EXPECT_THROW(ds.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(ds.column("missing"), std::out_of_range);
  EXPECT_THROW(Dataset(make_experiment(), {}), std::invalid_argument);
}

TEST(Dataset, CsvHeaderEmbedsExperiment) {
  Dataset ds(make_experiment(), {"x"});
  ds.add_row({1.0});
  std::ostringstream os;
  ds.write_csv(os);
  const auto text = os.str();
  EXPECT_NE(text.find("# experiment: latency_sweep"), std::string::npos);
  EXPECT_NE(text.find("# env.machine: dora-sim"), std::string::npos);
  EXPECT_NE(text.find("# factor.bytes: 64 4096"), std::string::npos);
  EXPECT_NE(text.find("x\n"), std::string::npos);
}

TEST(Dataset, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/scibench_roundtrip.csv";
  {
    Dataset ds(make_experiment(), {"bytes", "latency_us"});
    ds.add_row({64.0, 1.6625});
    ds.add_row({128.0, 1.75});
    ds.add_row({4096.0, 2.875});
    ds.save_csv(path);
  }
  const auto loaded = Dataset::load_csv(path);
  EXPECT_EQ(loaded.rows(), 3u);
  EXPECT_EQ(loaded.columns(), (std::vector<std::string>{"bytes", "latency_us"}));
  EXPECT_DOUBLE_EQ(loaded.column("latency_us")[2], 2.875);
  // Provenance preserved in description.
  EXPECT_NE(loaded.experiment().description.find("latency_sweep"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Dataset, FullPrecisionRoundTrip) {
  const std::string path = ::testing::TempDir() + "/scibench_precision.csv";
  const double value = 1.0 / 3.0;
  {
    Dataset ds(make_experiment(), {"v"});
    ds.add_row({value});
    ds.save_csv(path);
  }
  const auto loaded = Dataset::load_csv(path);
  EXPECT_EQ(loaded.column("v")[0], value);  // bit-exact via %.17g
  std::remove(path.c_str());
}

TEST(Dataset, LoadMissingFileThrows) {
  EXPECT_THROW(Dataset::load_csv("/nonexistent/nope.csv"), std::runtime_error);
}

namespace {

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream os(path);
  os << body;
  return path;
}

std::string load_error(const std::string& path) {
  try {
    (void)Dataset::load_csv(path);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(Dataset, MalformedCellReportsFileLineAndColumn) {
  const std::string path =
      write_temp("scibench_malformed.csv", "# comment\na,b\n1,2\n3,oops\n");
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find(":4:"), std::string::npos) << what;  // 1-based line
  EXPECT_NE(what.find("column 2"), std::string::npos) << what;
  EXPECT_NE(what.find("'oops'"), std::string::npos) << what;
}

TEST(Dataset, TrailingGarbageAfterNumberIsMalformed) {
  const std::string path = write_temp("scibench_trailing.csv", "a\n1.5x\n");
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find("'1.5x'"), std::string::npos) << what;
}

TEST(Dataset, RowArityMismatchReportsLine) {
  const std::string path = write_temp("scibench_arity.csv", "a,b\n1,2\n3\n");
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find(":3:"), std::string::npos) << what;
  EXPECT_NE(what.find("expected 2 cells, got 1"), std::string::npos) << what;
}

TEST(Dataset, TrailingCommaInDataRowIsAnEmptyCell) {
  const std::string path = write_temp("scibench_trailing_comma.csv", "a,b\n1,2\n3,4,\n");
  EXPECT_THROW((void)Dataset::load_csv(path), std::runtime_error);
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find(":3: column 3: malformed numeric cell ''"), std::string::npos) << what;
}

TEST(Dataset, TrailingCommaInHeaderIsAnEmptyColumnName) {
  const std::string path = write_temp("scibench_header_comma.csv", "a,b,\n1,2\n");
  EXPECT_THROW((void)Dataset::load_csv(path), std::runtime_error);
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find(":2: expected 3 cells, got 2"), std::string::npos) << what;
}

TEST(Dataset, MissingOrUnusableColumnLineIsARuntimeError) {
  for (const char* body : {"", "# only comments\n#\n", "\n\n", "a\r\r,b\n1,2\n"}) {
    const std::string path = write_temp("scibench_no_columns.csv", body);
    EXPECT_THROW((void)Dataset::load_csv(path), std::runtime_error) << body;
    std::remove(path.c_str());
  }
}

TEST(Dataset, WriterMatchesPrintfG17ByteForByte) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double two53 = 9007199254740992.0;
  std::vector<double> values = {0.0,
                                -0.0,
                                inf,
                                -inf,
                                nan,
                                -nan,
                                std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),
                                std::bit_cast<double>(std::uint64_t{0xfff8000000000123}),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                DBL_MAX,
                                -DBL_MAX,
                                0.1,
                                1e15 - 1,
                                -(1e15 - 1),
                                1e15,
                                -1e15,
                                1e16,
                                1e17,
                                two53,
                                two53 + 2,
                                -1.0,
                                0.5,
                                -0.5};
  rng::Xoshiro256 gen(0x25'2e'31'37'67);
  for (int i = 0; i < 100000; ++i) values.push_back(std::bit_cast<double>(gen()));
  // Integers of every magnitude up to 10^17, around the integer path's bound.
  std::uint64_t pow10 = 1;
  for (int digits = 1; digits <= 17; ++digits) {
    pow10 *= 10;
    for (int i = 0; i < 200; ++i) {
      const auto v = static_cast<double>(gen() % pow10);
      values.push_back(i % 2 == 0 ? v : -v);
    }
  }

  Dataset ds(make_experiment(), {"v"});
  for (double v : values) ds.add_row({v});
  std::ostringstream os;
  ds.write_csv(os);
  const std::string got = os.str();

  std::ostringstream header;
  Dataset(make_experiment(), {"v"}).write_csv(header);
  const std::string want = header.str();
  ASSERT_EQ(got.compare(0, want.size(), want), 0);
  std::size_t pos = want.size();
  for (double v : values) {
    char cell[64];
    const int n = std::snprintf(cell, sizeof cell, "%.17g\n", v);
    ASSERT_EQ(got.compare(pos, static_cast<std::size_t>(n), cell), 0)
        << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v) << ": want " << cell;
    pos += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(pos, got.size());
}

TEST(Dataset, MultiBlockFileReloadsBitExact) {
  // Megabytes of text, so lines straddle the reader's block boundaries.
  rng::Xoshiro256 gen(0x626c6f636b);
  Dataset ds(make_experiment(), {"config", "value", "bits"});
  for (std::size_t i = 0; i < 60000; ++i) {
    double v = 0.0;
    do v = std::bit_cast<double>(gen()); while (std::isnan(v));
    const double unit = std::ldexp(static_cast<double>(gen() >> 11), -53);
    ds.add_row({static_cast<double>(i % 7), v, unit});
  }
  const std::string path = ::testing::TempDir() + "/scibench_multiblock.csv";
  ds.save_csv(path);
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.rows(), ds.rows());
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(loaded.row(r)[c]),
                std::bit_cast<std::uint64_t>(ds.row(r)[c]))
          << "row " << r << " column " << c;
    }
  }
}

TEST(Dataset, AcceptsInfNanAndWhitespaceAndCrlf) {
  const std::string path =
      write_temp("scibench_lenient.csv", "a,b\r\n 1 ,\tinf\r\n-2,nan\r\n");
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.rows(), 2u);
  EXPECT_EQ(loaded.column("a"), (std::vector<double>{1.0, -2.0}));
  EXPECT_TRUE(std::isinf(loaded.column("b")[0]));
  EXPECT_TRUE(std::isnan(loaded.column("b")[1]));
}

TEST(Dataset, RejectsColumnNamesThatBreakCsv) {
  EXPECT_THROW(Dataset(make_experiment(), {"a,b"}), std::invalid_argument);
  EXPECT_THROW(Dataset(make_experiment(), {"a\nb"}), std::invalid_argument);
}

TEST(HeaderEscaping, RoundTripsControlCharacters) {
  const std::string nasty = "path\\x, with, commas\nand a\rCR";
  EXPECT_EQ(unescape_header_text(escape_header_text(nasty)), nasty);
  EXPECT_EQ(escape_header_text(nasty).find('\n'), std::string::npos);
  EXPECT_EQ(escape_header_text(nasty).find('\r'), std::string::npos);
  EXPECT_EQ(escape_header_text("plain"), "plain");
}

TEST(HeaderEscaping, EnvValuesWithNewlinesSurviveCsvRoundTrip) {
  Experiment e;
  e.name = "escaped";
  // Once upon a time this newline spilled into an unprefixed CSV line
  // and the file came back unreadable.
  e.set("cmdline", "./bench --flags=a,b\n--second-line");
  const std::string path = ::testing::TempDir() + "/scibench_escaped.csv";
  {
    Dataset ds(e, {"v"});
    ds.add_row({1.0});
    ds.save_csv(path);
  }
  // Every header line is '#'-prefixed; the data parses.
  std::ifstream is(path);
  std::string line;
  std::size_t header_lines = 0;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] == '#') ++header_lines;
    EXPECT_TRUE(line.empty() || line[0] == '#' || line.find("cmdline") == std::string::npos)
        << "unescaped header spill: " << line;
  }
  EXPECT_GT(header_lines, 0u);
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.rows(), 1u);
  EXPECT_NE(loaded.experiment().description.find("\\n--second-line"), std::string::npos)
      << loaded.experiment().description;
}

TEST(Dataset, SaveCsvToUnwritablePathThrows) {
  Dataset ds(make_experiment(), {"v"});
  ds.add_row({1.0});
  EXPECT_THROW(ds.save_csv("/nonexistent-dir/out.csv"), std::runtime_error);
}

}  // namespace
}  // namespace sci::core
