// Reference oracle for the tests: a dense two-phase primal simplex for
// small LPs, and quantile regression solved with it in the textbook
// Koenker & Bassett (1978) LP form. Every pivot updates the whole dense
// tableau, so keep n in the hundreds.
//
// Solves  min c'x  s.t.  Ax = b, x >= 0  with Bland's anti-cycling rule.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sci::oracle {

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct Solution {
  Status status = Status::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< primal solution, size = #columns
  std::size_t iterations = 0;
};

/// Dense row-major LP in standard equality form.
class Problem {
 public:
  /// `rows` equality constraints over `cols` non-negative variables.
  Problem(std::size_t rows, std::size_t cols);

  void set_objective(std::size_t col, double coeff);
  void set_coefficient(std::size_t row, std::size_t col, double value);
  void set_rhs(std::size_t row, double value);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Two-phase simplex. `max_iterations` of 0 means a size-derived default.
  [[nodiscard]] Solution solve(std::size_t max_iterations = 0) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> a_;  // rows_ x cols_, row-major
  std::vector<double> b_;
  std::vector<double> c_;
};

/// Quantile regression by the simplex: minimizes  sum_i rho_tau(y_i -
/// x_i' b)  over [intercept, design columns]. `objective` is the LP
/// optimum; `converged` is false unless the simplex reports optimal.
struct QuantRegLp {
  bool converged = false;
  double objective = 0.0;
  std::vector<double> coefficients;
};
[[nodiscard]] QuantRegLp quantile_regression_lp(std::span<const double> y,
                                                std::span<const std::vector<double>> design,
                                                double tau);

}  // namespace sci::oracle
