#include "stats/quantile_regression.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "rng/distributions.hpp"
#include "rng/lanes.hpp"
#include "stats/descriptive.hpp"
#include "stats/parallel.hpp"

namespace sci::stats {
namespace {

// A column (or basis row) whose component orthogonal to the earlier ones
// is below this share of its norm counts as linearly dependent.
constexpr double kRankTol = 1e-9;
// Interior point: stop at duality gap <= kGapTol * n in the scaled
// units (residuals O(1)) and step this fraction of the way to the
// boundary. The start shifts z and w by kShift times the mean |residual|
// (at least kNudge) so it begins off the boundary: Koenker's unshifted
// start spends its first several steps at lengths near 1e-8.
constexpr double kGapTol = 1e-10;
constexpr double kBoundaryStep = 0.99995;
constexpr double kShift = 0.1;
constexpr double kNudge = 1e-6;
constexpr int kMaxNewton = 100;
// Vertex finish: a reduced cost counts as negative below -kCostTol times
// the absolute sum of its terms; a direction entry below kZeroTol times
// the largest one is a rounding zero.
constexpr double kCostTol = 1e-10;
constexpr double kZeroTol = 1e-12;

double check_loss(double u, double tau) { return u >= 0.0 ? tau * u : (tau - 1.0) * u; }

double dot(const double* a, const double* b, std::size_t m) {
  double s = 0.0;
  for (std::size_t c = 0; c < m; ++c) s += a[c] * b[c];
  return s;
}

// Flat row-major n x p copy of the design; column 0 is the intercept.
struct Design {
  std::size_t n = 0;
  std::size_t p = 0;
  std::vector<double> x;
  [[nodiscard]] const double* row(std::size_t i) const { return x.data() + i * p; }
};

Design make_design(std::span<const double> y, std::span<const std::vector<double>> design,
                   double tau) {
  const std::size_t n = y.size();
  if (n == 0) throw std::invalid_argument("quantile_regression: empty response");
  if (!(tau > 0.0 && tau < 1.0)) throw std::domain_error("quantile_regression: tau in (0,1)");
  const std::size_t k = design.empty() ? 0 : design.front().size();
  for (const auto& row : design) {
    if (row.size() != k) throw std::invalid_argument("quantile_regression: ragged design");
  }
  if (!design.empty() && design.size() != n)
    throw std::invalid_argument("quantile_regression: design/response size mismatch");
  for (double v : y) {
    if (!std::isfinite(v)) throw std::invalid_argument("quantile_regression: non-finite response");
  }
  Design d;
  d.n = n;
  d.p = k + 1;
  d.x.resize(n * d.p);
  for (std::size_t i = 0; i < n; ++i) {
    d.x[i * d.p] = 1.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double v = design[i][j];
      if (!std::isfinite(v)) throw std::invalid_argument("quantile_regression: non-finite design");
      d.x[i * d.p + 1 + j] = v;
    }
  }
  return d;
}

// Removes from `v` its projection on the orthonormal vectors `basis`
// (modified Gram-Schmidt, applied twice for orthogonality to rounding);
// true when what is left is independent of them.
bool orthogonalize(std::vector<double>& v, const std::vector<std::vector<double>>& basis) {
  const double norm0 = std::sqrt(dot(v.data(), v.data(), v.size()));
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& b : basis) {
      const double proj = dot(b.data(), v.data(), v.size());
      for (std::size_t i = 0; i < v.size(); ++i) v[i] -= proj * b[i];
    }
  }
  const double norm = std::sqrt(dot(v.data(), v.data(), v.size()));
  if (!(norm > kRankTol * norm0)) return false;
  for (double& e : v) e /= norm;
  return true;
}

// Orthonormal basis Q (row-major n x m) of the design's column space,
// intercept first. A column in the span of the earlier ones is dropped:
// it cannot lower the check loss, so its coefficient is 0. Returns the
// indices of the kept columns.
std::vector<std::size_t> column_basis(const Design& d, std::vector<double>& q) {
  std::vector<std::vector<double>> cols;
  std::vector<std::size_t> kept;
  for (std::size_t j = 0; j < d.p; ++j) {
    std::vector<double> v(d.n);
    for (std::size_t i = 0; i < d.n; ++i) v[i] = d.x[i * d.p + j];
    if (!orthogonalize(v, cols)) continue;
    cols.push_back(std::move(v));
    kept.push_back(j);
  }
  const std::size_t m = kept.size();
  q.assign(d.n * m, 0.0);
  for (std::size_t i = 0; i < d.n; ++i) {
    for (std::size_t c = 0; c < m; ++c) q[i * m + c] = cols[c][i];
  }
  return kept;
}

// In-place Cholesky factor (lower triangle) of the SPD m x m matrix `a`;
// false when it is not numerically positive definite.
bool cholesky(std::vector<double>& a, std::size_t m) {
  for (std::size_t j = 0; j < m; ++j) {
    double piv = a[j * m + j];
    for (std::size_t k = 0; k < j; ++k) piv -= a[j * m + k] * a[j * m + k];
    if (!(piv > 0.0)) return false;
    a[j * m + j] = std::sqrt(piv);
    for (std::size_t i = j + 1; i < m; ++i) {
      double s = a[i * m + j];
      for (std::size_t k = 0; k < j; ++k) s -= a[i * m + k] * a[j * m + k];
      a[i * m + j] = s / a[j * m + j];
    }
  }
  return true;
}

void cholesky_solve(const std::vector<double>& l, std::vector<double>& b, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l[i * m + k] * b[k];
    b[i] = s / l[i * m + i];
  }
  for (std::size_t i = m; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < m; ++k) s -= l[k * m + i] * b[k];
    b[i] = s / l[i * m + i];
  }
}

// Dense m x m LU with partial pivoting (m is the coefficient count) for
// the basis solves  X_h b = y_h  and  X_h' u = x_i.
class BasisLu {
 public:
  // Factors the row-major m x m matrix `a`; false when it is singular.
  bool factor(std::vector<double> a, std::size_t m) {
    m_ = m;
    lu_ = std::move(a);
    perm_.resize(m);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    for (std::size_t k = 0; k < m; ++k) {
      std::size_t piv = k;
      for (std::size_t i = k + 1; i < m; ++i) {
        if (std::fabs(lu_[i * m + k]) > std::fabs(lu_[piv * m + k])) piv = i;
      }
      if (!(std::fabs(lu_[piv * m + k]) > 0.0) || !std::isfinite(lu_[piv * m + k])) return false;
      if (piv != k) {
        for (std::size_t c = 0; c < m; ++c) std::swap(lu_[k * m + c], lu_[piv * m + c]);
        std::swap(perm_[k], perm_[piv]);
      }
      for (std::size_t i = k + 1; i < m; ++i) {
        const double f = lu_[i * m + k] / lu_[k * m + k];
        lu_[i * m + k] = f;
        for (std::size_t c = k + 1; c < m; ++c) lu_[i * m + c] -= f * lu_[k * m + c];
      }
    }
    return true;
  }

  // A x = b, in place on b[0..m).
  void solve(double* b) const {
    tmp_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) tmp_[i] = b[perm_[i]];
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t k = 0; k < i; ++k) tmp_[i] -= lu_[i * m_ + k] * tmp_[k];
    }
    for (std::size_t i = m_; i-- > 0;) {
      for (std::size_t k = i + 1; k < m_; ++k) tmp_[i] -= lu_[i * m_ + k] * tmp_[k];
      tmp_[i] /= lu_[i * m_ + i];
    }
    std::copy(tmp_.begin(), tmp_.end(), b);
  }

  // A' x = b, in place on b[0..m).
  void solve_transposed(double* b) const {
    tmp_.assign(b, b + m_);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t k = 0; k < i; ++k) tmp_[i] -= lu_[k * m_ + i] * tmp_[k];
      tmp_[i] /= lu_[i * m_ + i];
    }
    for (std::size_t i = m_; i-- > 0;) {
      for (std::size_t k = i + 1; k < m_; ++k) tmp_[i] -= lu_[k * m_ + i] * tmp_[k];
    }
    for (std::size_t i = 0; i < m_; ++i) b[perm_[i]] = tmp_[i];
  }

 private:
  std::size_t m_ = 0;
  std::vector<double> lu_;
  std::vector<std::size_t> perm_;
  mutable std::vector<double> tmp_;
};

// Frisch-Newton interior point (Koenker & Portnoy 1997, the rqfnb
// scheme) on the dual of the check-loss LP, in the orthonormal basis Q:
//   min c'a  s.t.  Q'a = (1 - tau) Q'1,  0 <= a <= 1,  c = -ys,
// with slack s = 1 - a and multipliers v (equalities), z >= 0 (a >= 0)
// and w >= 0 (s >= 0). Mehrotra predictor-corrector steps; each
// iteration solves one m x m normal-equations system, O(n m^2).
// Returns the residuals ys - Q gamma of the last iterate's primal
// coefficients gamma = -v; near the optimum the basis observations are
// the ones with the smallest |residual|.
std::vector<double> interior_point(const std::vector<double>& q, std::size_t m,
                                   const std::vector<double>& ys, double tau) {
  const std::size_t n = ys.size();
  std::vector<double> a(n, 1.0 - tau), s(n, tau), z(n), w(n);
  std::vector<double> ia(n), is(n), iz(n), iw(n), d(n), da(n), ds(n), dz(n), dw(n), dr(n);
  std::vector<double> b(m, 0.0), v(m, 0.0), dv(m), rhs(m), ada(m * m);
  const auto row = [&](std::size_t i) { return q.data() + i * m; };

  // The start a = (1 - tau) 1 is feasible; v is the least-squares fit of
  // c on Q (Q'Q = I), so z - w = c - Q v holds exactly.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < m; ++c) {
      b[c] += row(i)[c] * a[i];
      v[c] -= row(i)[c] * ys[i];
    }
  }
  double mean_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    dr[i] = -ys[i] - dot(row(i), v.data(), m);
    mean_abs += std::fabs(dr[i]);
  }
  const double shift = std::max(kShift * mean_abs / static_cast<double>(n), kNudge);
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = std::max(dr[i], 0.0) + shift;
    w[i] = std::max(-dr[i], 0.0) + shift;
  }

  // Step lengths to the boundary: 1 / max_i(-step_i / value_i) over
  // both bounds of each pair, kept branch-free with the stored inverses.
  const auto step_length = [](double worst) {
    return worst > 0.0 ? std::min(kBoundaryStep / worst, 1.0) : 1.0;
  };

  double gap = 0.0;
  for (std::size_t i = 0; i < n; ++i) gap += z[i] * a[i] + w[i] * s[i];
  const double stop = kGapTol * static_cast<double>(n);
  for (int it = 0; it < kMaxNewton && gap > stop; ++it) {
    // Affine-scaling (predictor) direction.
    std::copy(b.begin(), b.end(), rhs.begin());
    std::fill(ada.begin(), ada.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      ia[i] = 1.0 / a[i];
      is[i] = 1.0 / s[i];
      iz[i] = 1.0 / z[i];
      iw[i] = 1.0 / w[i];
      d[i] = 1.0 / (z[i] * ia[i] + w[i] * is[i]);
      ds[i] = z[i] - w[i];
      const double coef = d[i] * ds[i] - a[i];
      for (std::size_t c = 0; c < m; ++c) {
        rhs[c] += row(i)[c] * coef;
        for (std::size_t c2 = 0; c2 <= c; ++c2) ada[c * m + c2] += d[i] * row(i)[c] * row(i)[c2];
      }
    }
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t c2 = c + 1; c2 < m; ++c2) ada[c * m + c2] = ada[c2 * m + c];
    }
    if (!cholesky(ada, m)) break;
    dv = rhs;
    cholesky_solve(ada, dv, m);
    double worst_p = 0.0, worst_d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      da[i] = d[i] * (dot(row(i), dv.data(), m) - ds[i]);
      ds[i] = -da[i];
      dz[i] = -z[i] * (da[i] * ia[i] + 1.0);
      dw[i] = -w[i] * (ds[i] * is[i] + 1.0);
      worst_p = std::max(worst_p, std::max(-da[i] * ia[i], -ds[i] * is[i]));
      worst_d = std::max(worst_d, std::max(-dz[i] * iz[i], -dw[i] * iw[i]));
    }
    double step_p = step_length(worst_p);
    double step_d = step_length(worst_d);

    if (std::min(step_p, step_d) < 1.0) {
      // Mehrotra corrector: centre on mu = gap (g / gap)^3 / 2n, g the
      // gap the affine step would reach, with its second-order terms.
      double g = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        g += (a[i] + step_p * da[i]) * (z[i] + step_d * dz[i]) +
             (s[i] + step_p * ds[i]) * (w[i] + step_d * dw[i]);
      }
      const double mu = gap * std::pow(g / gap, 3) / (2.0 * static_cast<double>(n));
      dv = rhs;
      for (std::size_t i = 0; i < n; ++i) {
        dr[i] = d[i] * (mu * (is[i] - ia[i]) + da[i] * dz[i] * ia[i] -
                        ds[i] * dw[i] * is[i]);
        for (std::size_t c = 0; c < m; ++c) dv[c] += row(i)[c] * dr[i];
      }
      cholesky_solve(ada, dv, m);
      worst_p = worst_d = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double dadz = da[i] * dz[i];
        const double dsdw = ds[i] * dw[i];
        da[i] = d[i] * (dot(row(i), dv.data(), m) - z[i] + w[i]) - dr[i];
        ds[i] = -da[i];
        dz[i] = (mu - z[i] * da[i] - dadz) * ia[i] - z[i];
        dw[i] = (mu - w[i] * ds[i] - dsdw) * is[i] - w[i];
        worst_p = std::max(worst_p, std::max(-da[i] * ia[i], -ds[i] * is[i]));
        worst_d = std::max(worst_d, std::max(-dz[i] * iz[i], -dw[i] * iw[i]));
      }
      step_p = step_length(worst_p);
      step_d = step_length(worst_d);
    }
    gap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      a[i] += step_p * da[i];
      s[i] += step_p * ds[i];
      z[i] += step_d * dz[i];
      w[i] += step_d * dw[i];
      gap += z[i] * a[i] + w[i] * s[i];
    }
    const std::vector<double> v_last = v;
    for (std::size_t c = 0; c < m; ++c) v[c] += step_d * dv[c];
    // A breakdown to inf/NaN keeps the last finite multipliers.
    if (!std::isfinite(gap) ||
        !std::all_of(v.begin(), v.end(), [](double e) { return std::isfinite(e); })) {
      v = v_last;
      break;
    }
  }

  std::vector<double> r(n);
  for (std::size_t i = 0; i < n; ++i) r[i] = ys[i] + dot(row(i), v.data(), m);
  return r;
}

// Starting vertex: the m observations with the smallest |r| whose Q rows
// are linearly independent, ties broken by lowest index.
std::vector<std::size_t> pick_basis(const std::vector<double>& q, std::size_t m,
                                    const std::vector<double>& r) {
  const std::size_t n = r.size();
  std::vector<double> key(n);
  for (std::size_t i = 0; i < n; ++i) {
    key[i] = std::isnan(r[i]) ? std::numeric_limits<double>::infinity() : std::fabs(r[i]);
  }
  const auto before = [&](std::size_t i, std::size_t j) {
    return key[i] < key[j] || (key[i] == key[j] && i < j);
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::size_t> basis;
  std::vector<std::vector<double>> rows;
  std::size_t sorted = 0;
  for (std::size_t want = std::min(n, 4 * m);; want = std::min(n, 2 * want)) {
    std::partial_sort(order.begin() + static_cast<std::ptrdiff_t>(sorted),
                      order.begin() + static_cast<std::ptrdiff_t>(want), order.end(), before);
    for (; sorted < want; ++sorted) {
      const std::size_t i = order[sorted];
      std::vector<double> cand(q.begin() + static_cast<std::ptrdiff_t>(i * m),
                               q.begin() + static_cast<std::ptrdiff_t>((i + 1) * m));
      if (!orthogonalize(cand, rows)) continue;
      rows.push_back(std::move(cand));
      basis.push_back(i);
      if (basis.size() == m) return basis;
    }
    if (want == n) return basis;
  }
}

// Exact vertex finish on the check-loss LP from the basis `h` (m
// observations interpolated exactly). Every other observation sits on
// one side: +1 (residual >= 0, psi = tau) or -1 (residual < 0,
// psi = tau - 1). The vertex is optimal when Koenker's subgradient
// condition  -tau <= xi_j <= 1 - tau  holds for
//   xi' = sum_{i not in h} psi_i q_i' Q_h^-1.
// Otherwise the most violated bound names a basis observation j to free
// and a direction; a Barrodale-Roberts line search walks the residual
// breakpoints along that edge to the check loss's minimum, where the
// observation k crossing zero replaces j in h and those crossed before
// it change side. Returns false if no optimal vertex is reached.
bool vertex_finish(const std::vector<double>& q, std::size_t m, const std::vector<double>& ys,
                   double tau, std::vector<std::size_t>& h) {
  const std::size_t n = ys.size();
  const std::size_t max_pivots = n + 100;
  std::vector<signed char> side(n, 1);
  std::vector<double> u(n * m), r(n), qh(m * m), xi(m), bound(m), yh(m);
  struct Crossing {
    double t;
    std::size_t i;
    double slope;
  };
  std::vector<Crossing> crossings;
  BasisLu lu;
  bool first = true;
  for (std::size_t pivot = 0;; ++pivot) {
    for (std::size_t j = 0; j < m; ++j) {
      std::copy_n(q.begin() + static_cast<std::ptrdiff_t>(h[j] * m), m, qh.begin() +
                  static_cast<std::ptrdiff_t>(j * m));
      yh[j] = ys[h[j]];
      side[h[j]] = 0;
    }
    if (!lu.factor(qh, m)) return false;
    // u_i = Q_h^-T q_i: entry j is how observation i's residual moves
    // when basis observation j's residual moves by one.
    std::fill(xi.begin(), xi.end(), 0.0);
    std::fill(bound.begin(), bound.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (side[i] == 0) continue;
      double* ui = u.data() + i * m;
      std::copy_n(q.begin() + static_cast<std::ptrdiff_t>(i * m), m, ui);
      lu.solve_transposed(ui);
      r[i] = ys[i] - dot(ui, yh.data(), m);
      if (first) side[i] = r[i] >= 0.0 ? 1 : -1;
      const double psi = side[i] > 0 ? tau : tau - 1.0;
      for (std::size_t j = 0; j < m; ++j) {
        xi[j] += psi * ui[j];
        bound[j] += std::fabs(ui[j]);
      }
    }
    first = false;

    // Reduced costs: moving basis residual j up costs tau + xi_j per
    // unit, moving it down (1 - tau) - xi_j.
    std::size_t enter = m;
    int dir = 0;
    double rate = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double tol = kCostTol * (1.0 + bound[j]);
      const double up = tau + xi[j];
      const double down = (1.0 - tau) - xi[j];
      if (up < -tol && up < rate) {
        enter = j;
        dir = 1;
        rate = up;
      }
      if (down < -tol && down < rate) {
        enter = j;
        dir = -1;
        rate = down;
      }
    }
    if (enter == m) return true;
    if (pivot == max_pivots) return false;

    // Along the edge, residual i moves as r_i + t g_i; it crosses zero at
    // t_i when it heads towards zero, raising the slope by |g_i|.
    double gmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (side[i] != 0) gmax = std::max(gmax, std::fabs(u[i * m + enter]));
    }
    crossings.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (side[i] == 0) continue;
      const double g = dir * u[i * m + enter];
      if (std::fabs(g) <= kZeroTol * gmax) continue;
      if (side[i] > 0 && g < 0.0) {
        crossings.push_back({std::max(r[i], 0.0) / -g, i, -g});
      } else if (side[i] < 0 && g > 0.0) {
        crossings.push_back({std::max(-r[i], 0.0) / g, i, g});
      }
    }
    std::sort(crossings.begin(), crossings.end(), [](const Crossing& x, const Crossing& y) {
      return x.t < y.t || (x.t == y.t && x.i < y.i);
    });
    std::size_t k = n;
    double slope = rate;
    for (const Crossing& c : crossings) {
      slope += c.slope;
      if (slope >= 0.0) {
        k = c.i;
        break;
      }
    }
    if (k == n) return false;  // unbounded edge: cannot happen at full column rank
    for (const Crossing& c : crossings) {
      if (c.i == k) break;
      side[c.i] = static_cast<signed char>(-side[c.i]);
    }
    side[h[enter]] = static_cast<signed char>(dir);
    h[enter] = k;
  }
}

// Minimizes  sum_i rho_tau(y_i - x_i' b)  exactly: interior point to
// near the optimum, then the exact vertex finish on the basis it names.
QuantRegResult solve_one(std::span<const double> y,
                         std::span<const std::vector<double>> design, double tau) {
  const Design d = make_design(y, design, tau);
  const std::size_t n = d.n;
  QuantRegResult out;
  out.tau = tau;

  std::vector<double> q;
  const std::vector<std::size_t> kept = column_basis(d, q);
  const std::size_t m = kept.size();

  // Residual ordering is invariant under y -> (y - mean) / scale, which
  // keeps the interior point's tolerances in units of the data spread.
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(n);
  double scale = 0.0;
  for (double v : y) scale += std::fabs(v - mean);
  scale /= static_cast<double>(n);
  if (!(scale > 0.0) || !std::isfinite(scale)) scale = 1.0;
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = (y[i] - mean) / scale;

  std::vector<std::size_t> h = pick_basis(q, m, interior_point(q, m, ys, tau));
  if (h.size() != m || !vertex_finish(q, m, ys, tau, h)) return out;

  // Exact vertex: solve X_h b = y_h on the kept columns.
  std::vector<double> xh(m * m), b(m);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < m; ++c) xh[j * m + c] = d.row(h[j])[kept[c]];
    b[j] = y[h[j]];
  }
  BasisLu lu;
  if (!lu.factor(std::move(xh), m)) return out;
  lu.solve(b.data());
  out.coefficients.assign(d.p, 0.0);
  for (std::size_t c = 0; c < m; ++c) out.coefficients[kept[c]] = b[c];
  for (std::size_t i = 0; i < n; ++i) {
    out.objective += check_loss(y[i] - dot(d.row(i), out.coefficients.data(), d.p), tau);
  }
  out.converged = std::isfinite(out.objective);
  if (!out.converged) {
    out.coefficients.clear();
    out.objective = 0.0;
  }
  return out;
}

}  // namespace

QuantRegResult quantile_regression(std::span<const double> y,
                                   std::span<const std::vector<double>> design,
                                   double tau) {
  return solve_one(y, design, tau);
}

std::vector<QuantRegResult> quantile_regression_sweep(
    std::span<const double> y, std::span<const std::vector<double>> design,
    std::span<const double> taus) {
  std::vector<QuantRegResult> out;
  out.reserve(taus.size());
  for (double tau : taus) out.push_back(solve_one(y, design, tau));
  return out;
}

QuantRegCI quantile_regression_bootstrap_ci(std::span<const double> y,
                                            std::span<const std::vector<double>> design,
                                            double tau, std::size_t replicates,
                                            double confidence, std::uint64_t seed,
                                            const ExecPolicy& policy) {
  const std::size_t n = y.size();
  const std::size_t p = (design.empty() ? 0 : design.front().size()) + 1;

  // Lane l refits the contiguous replicate block [l*base + min(l, rem),
  // ...) using Xoshiro256(seed) jumped l times -- the same sharding
  // contract as BootstrapEngine, so CIs depend on `lanes` but never on
  // `threads`, and lanes = 1 is the historical single-stream sequence.
  const std::size_t lanes = std::min(policy.effective_lanes(),
                                     std::max<std::size_t>(replicates, 1));
  rng::LaneRng lane_rng;
  lane_rng.reset(seed, lanes);
  const std::size_t base = replicates / lanes;
  const std::size_t rem = replicates % lanes;

  // fits[rep]: coefficient vector of replicate rep, empty if the refit
  // failed to converge. Indexed by global replicate so the later scan
  // reproduces the exact legacy push order.
  std::vector<std::vector<double>> fits(replicates);
  policy_partition(ExecPolicy{policy.effective_threads(), 1}, lanes,
                   [&](std::size_t, std::size_t lane_lo, std::size_t lane_hi) {
                     std::vector<double> yb(n);
                     std::vector<std::vector<double>> xb(design.empty() ? 0 : n);
                     for (std::size_t l = lane_lo; l < lane_hi; ++l) {
                       rng::Xoshiro256 gen = lane_rng.lane(l);
                       const std::size_t start = l * base + std::min(l, rem);
                       const std::size_t len = base + (l < rem ? 1 : 0);
                       for (std::size_t rep = start; rep < start + len; ++rep) {
                         for (std::size_t i = 0; i < n; ++i) {
                           const auto idx =
                               static_cast<std::size_t>(rng::uniform_below(gen, n));
                           yb[i] = y[idx];
                           if (!design.empty()) xb[i] = design[idx];
                         }
                         const auto fit = solve_one(yb, xb, tau);
                         if (fit.converged) fits[rep] = fit.coefficients;
                       }
                     }
                   });

  std::vector<std::vector<double>> coef_samples(p);
  for (std::size_t rep = 0; rep < replicates; ++rep) {
    if (fits[rep].empty()) continue;
    for (std::size_t j = 0; j < p; ++j) coef_samples[j].push_back(fits[rep][j]);
  }

  QuantRegCI ci;
  ci.lower.resize(p);
  ci.upper.resize(p);
  const double alpha = 1.0 - confidence;
  for (std::size_t j = 0; j < p; ++j) {
    if (coef_samples[j].size() < 10)
      throw std::runtime_error("quantile_regression_bootstrap_ci: too few converged refits");
    const auto sorted = sorted_copy(coef_samples[j]);
    ci.lower[j] = quantile_sorted(sorted, alpha / 2.0);
    ci.upper[j] = quantile_sorted(sorted, 1.0 - alpha / 2.0);
  }
  return ci;
}

}  // namespace sci::stats
