#include "oracle/simplex.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace sci::oracle {
namespace {

constexpr double kEps = 1e-9;

// Tableau-based simplex over an explicit basis. The tableau stores the
// constraint matrix extended with artificial columns; `basis[r]` is the
// column currently basic in row r.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * (cols + 1)), basis_(rows) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * (cols_ + 1) + c]; }
  double& rhs(std::size_t r) { return data_[r * (cols_ + 1) + cols_]; }
  std::size_t& basis(std::size_t r) { return basis_[r]; }

  void pivot(std::size_t pr, std::size_t pc) {
    const double inv = 1.0 / at(pr, pc);
    for (std::size_t c = 0; c <= cols_; ++c) at(pr, c) *= inv;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double factor = at(r, pc);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= cols_; ++c) at(r, c) -= factor * at(pr, c);
    }
    basis_[pr] = pc;
  }

  // One phase of simplex on reduced costs of `cost`, restricted to columns
  // < allowed_cols. Returns optimal objective or infinity if unbounded.
  Status run(std::span<const double> cost, std::size_t allowed_cols,
             std::size_t max_iter, double& objective, std::size_t& iters) {
    std::vector<double> y(rows_);  // multipliers c_B B^-1 implicit via tableau
    for (; iters < max_iter; ++iters) {
      // Reduced cost of column j: c_j - sum_r cost[basis[r]] * at(r, j).
      // Bland's rule: first column with negative reduced cost.
      std::size_t enter = allowed_cols;
      for (std::size_t j = 0; j < allowed_cols; ++j) {
        double red = cost[j];
        for (std::size_t r = 0; r < rows_; ++r) red -= cost[basis_[r]] * at(r, j);
        if (red < -kEps) {
          enter = j;
          break;
        }
      }
      if (enter == allowed_cols) {
        objective = 0.0;
        for (std::size_t r = 0; r < rows_; ++r) objective += cost[basis_[r]] * rhs(r);
        return Status::kOptimal;
      }
      // Ratio test, Bland: smallest basis index among ties.
      std::size_t leave = rows_;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < rows_; ++r) {
        if (at(r, enter) > kEps) {
          const double ratio = rhs(r) / at(r, enter);
          if (ratio < best - kEps ||
              (ratio < best + kEps && (leave == rows_ || basis_[r] < basis_[leave]))) {
            best = ratio;
            leave = r;
          }
        }
      }
      if (leave == rows_) return Status::kUnbounded;
      pivot(leave, enter);
    }
    return Status::kIterationLimit;
  }

  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
  std::vector<std::size_t> basis_;
};

}  // namespace

Problem::Problem(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), a_(rows * cols), b_(rows), c_(cols) {}

void Problem::set_objective(std::size_t col, double coeff) {
  assert(col < cols_);
  c_[col] = coeff;
}

void Problem::set_coefficient(std::size_t row, std::size_t col, double value) {
  assert(row < rows_ && col < cols_);
  a_[row * cols_ + col] = value;
}

void Problem::set_rhs(std::size_t row, double value) {
  assert(row < rows_);
  b_[row] = value;
}

Solution Problem::solve(std::size_t max_iterations) const {
  const std::size_t total_cols = cols_ + rows_;  // original + artificial
  if (max_iterations == 0) max_iterations = 200 * (rows_ + cols_) + 10000;

  Tableau tab(rows_, total_cols);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double sign = (b_[r] < 0.0) ? -1.0 : 1.0;  // keep rhs non-negative
    for (std::size_t c = 0; c < cols_; ++c) tab.at(r, c) = sign * a_[r * cols_ + c];
    tab.rhs(r) = sign * b_[r];
    tab.at(r, cols_ + r) = 1.0;
    tab.basis(r) = cols_ + r;
  }

  Solution sol;

  // Phase I: minimize sum of artificials.
  std::vector<double> phase1(total_cols, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) phase1[cols_ + r] = 1.0;
  double obj1 = 0.0;
  Status s1 = tab.run(phase1, total_cols, max_iterations, obj1, sol.iterations);
  if (s1 != Status::kOptimal) {
    sol.status = s1;
    return sol;
  }
  if (obj1 > 1e-7) {
    sol.status = Status::kInfeasible;
    return sol;
  }
  // Drive remaining artificials out of the basis where possible.
  for (std::size_t r = 0; r < rows_; ++r) {
    if (tab.basis(r) >= cols_) {
      for (std::size_t c = 0; c < cols_; ++c) {
        if (std::fabs(tab.at(r, c)) > kEps) {
          tab.pivot(r, c);
          break;
        }
      }
    }
  }

  // Phase II on the true objective; artificial columns excluded.
  std::vector<double> phase2(total_cols, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) phase2[c] = c_[c];
  // A redundant row may keep an artificial basic at value 0; give it zero
  // cost so it cannot perturb the objective.
  double obj2 = 0.0;
  Status s2 = tab.run(phase2, cols_, max_iterations, obj2, sol.iterations);
  sol.status = s2;
  if (s2 != Status::kOptimal) return sol;

  sol.objective = obj2;
  sol.x.assign(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (tab.basis(r) < cols_) sol.x[tab.basis(r)] = tab.rhs(r);
  }
  return sol;
}

// LP form: variables [b+ (p), b- (p), u+ (n), u- (n)], all >= 0.
//   minimize  tau * sum u+  +  (1 - tau) * sum u-
//   s.t.      X (b+ - b-) + u+ - u- = y          (n equality rows)
QuantRegLp quantile_regression_lp(std::span<const double> y,
                                  std::span<const std::vector<double>> design, double tau) {
  const std::size_t n = y.size();
  const std::size_t k = design.empty() ? 0 : design.front().size();
  const std::size_t p = k + 1;
  Problem prob(n, 2 * p + 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    prob.set_coefficient(i, 0, 1.0);
    prob.set_coefficient(i, p, -1.0);
    for (std::size_t j = 0; j < k; ++j) {
      prob.set_coefficient(i, 1 + j, design[i][j]);
      prob.set_coefficient(i, p + 1 + j, -design[i][j]);
    }
    prob.set_coefficient(i, 2 * p + i, 1.0);
    prob.set_coefficient(i, 2 * p + n + i, -1.0);
    prob.set_rhs(i, y[i]);
    prob.set_objective(2 * p + i, tau);
    prob.set_objective(2 * p + n + i, 1.0 - tau);
  }
  const Solution sol = prob.solve();
  QuantRegLp out;
  out.converged = sol.status == Status::kOptimal;
  if (!out.converged) return out;
  out.objective = sol.objective;
  out.coefficients.resize(p);
  for (std::size_t j = 0; j < p; ++j) out.coefficients[j] = sol.x[j] - sol.x[p + j];
  return out;
}

}  // namespace sci::oracle
