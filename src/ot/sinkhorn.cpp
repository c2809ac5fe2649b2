#include "ot/sinkhorn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/simd.hpp"

namespace otged {

namespace {

constexpr double kTiny = 1e-300;

// Marginal violation ||pi 1 - mu||_inf + ||pi^T 1 - nu||_inf.
double MarginalError(const Matrix& pi, const Matrix& mu, const Matrix& nu) {
  Matrix r = pi.RowSums();
  Matrix c = pi.ColSums().Transpose();
  return r.MaxAbsDiff(mu) + c.MaxAbsDiff(nu);
}

// CwiseDiv's denominator clamp, inlined for a single value.
inline double ClampDen(double d) {
  if (std::abs(d) < kTiny) d = d < 0 ? -kTiny : kTiny;
  return d;
}

}  // namespace

namespace detail {

// Plain-domain scaling with the kernel matrix K = exp(-C / eps) AND its
// transpose built once, outside the iteration loop (the original spelled
// the updates as Matrix expressions, re-transposing K and reallocating
// temporaries every sweep). The row dots replicate MatMul's zero-skip
// i-k-j accumulation order and psi/phi replicate the CwiseDiv clamp, so
// every iterate — and the final coupling — matches the original
// expression-by-expression arithmetic bit for bit.
SinkhornResult SinkhornPlainScalar(const Matrix& cost, const Matrix& mu,
                                   const Matrix& nu,
                                   const SinkhornOptions& opt) {
  const int n1 = cost.rows(), n2 = cost.cols();
  Matrix K = cost.Map([&](double c) { return std::exp(-c / opt.epsilon); });
  Matrix Kt = K.Transpose();
  const double* kd = K.data();
  const double* ktd = Kt.data();
  std::vector<double> phi(static_cast<size_t>(n1), 1.0);
  std::vector<double> psi(static_cast<size_t>(n2), 1.0);
  Matrix pi(n1, n2);

  const auto build_coupling = [&] {
    for (int i = 0; i < n1; ++i) {
      const double* krow = kd + static_cast<size_t>(i) * n2;
      double* prow = pi.data() + static_cast<size_t>(i) * n2;
      const double p = phi[static_cast<size_t>(i)];
      for (int j = 0; j < n2; ++j)
        prow[j] = (krow[j] * p) * psi[static_cast<size_t>(j)];
    }
  };

  SinkhornResult res;
  for (int m = 0; m < opt.max_iters; ++m) {
    for (int j = 0; j < n2; ++j) {
      const double* krow = ktd + static_cast<size_t>(j) * n1;
      double den = 0.0;
      for (int i = 0; i < n1; ++i) {
        const double k = krow[i];
        if (k == 0.0) continue;  // MatMul's exact-zero skip
        den += k * phi[static_cast<size_t>(i)];
      }
      psi[static_cast<size_t>(j)] = nu(j, 0) / ClampDen(den);
    }
    for (int i = 0; i < n1; ++i) {
      const double* krow = kd + static_cast<size_t>(i) * n2;
      double den = 0.0;
      for (int j = 0; j < n2; ++j) {
        const double k = krow[j];
        if (k == 0.0) continue;
        den += k * psi[static_cast<size_t>(j)];
      }
      phi[static_cast<size_t>(i)] = mu(i, 0) / ClampDen(den);
    }
    res.iters = m + 1;
    if ((m + 1) % 5 == 0 || m + 1 == opt.max_iters) {
      build_coupling();
      if (MarginalError(pi, mu, nu) < opt.tol) {
        res.converged = true;
        break;
      }
    }
  }
  build_coupling();
  res.coupling = pi;
  res.cost = cost.Dot(pi);
  return res;
}

// Vector twin: the same hoisted structure with the kernel build on
// simd::Exp, two-accumulator vector dots for the scaling denominators,
// and the coupling build fused with the marginal sums. Reductions are
// reassociated, so iterates track the scalar twin to a few ulp.
SinkhornResult SinkhornPlainSimd(const Matrix& cost, const Matrix& mu,
                                 const Matrix& nu,
                                 const SinkhornOptions& opt) {
  const int n1 = cost.rows(), n2 = cost.cols();
  constexpr int L = simd::kDoubleLanes;
  Matrix K(n1, n2);
  {
    const double* cd = cost.data();
    double* out = K.data();
    const int total = n1 * n2;
    const simd::VecD epsv = simd::VecD::Broadcast(opt.epsilon);
    const simd::VecD zero = simd::VecD::Zero();
    int t = 0;
    for (; t + L <= total; t += L)
      simd::Exp((zero - simd::VecD::Load(cd + t)) / epsv).Store(out + t);
    for (; t < total; ++t) out[t] = std::exp(-cd[t] / opt.epsilon);
  }
  Matrix Kt = K.Transpose();
  const double* kd = K.data();
  const double* ktd = Kt.data();
  std::vector<double> phi(static_cast<size_t>(n1), 1.0);
  std::vector<double> psi(static_cast<size_t>(n2), 1.0);
  std::vector<double> colsum(static_cast<size_t>(n2));
  Matrix pi(n1, n2);

  // dot(a, b) with two independent vector accumulators.
  const auto vdot = [](const double* a, const double* b, int n) {
    double s = 0.0;
    int t = 0;
    if constexpr (L > 1) {
      if (n >= 2 * L) {
        simd::VecD acc0 = simd::VecD::Zero(), acc1 = acc0;
        for (; t + 2 * L <= n; t += 2 * L) {
          acc0 = acc0 + simd::VecD::Load(a + t) * simd::VecD::Load(b + t);
          acc1 = acc1 +
                 simd::VecD::Load(a + t + L) * simd::VecD::Load(b + t + L);
        }
        s = simd::HSum(acc0 + acc1);
      }
    }
    for (; t < n; ++t) s += a[t] * b[t];
    return s;
  };

  // Fills pi = diag(phi) K diag(psi) and accumulates the row/column sums
  // in the same pass; returns the marginal violation.
  const auto build_and_error = [&] {
    std::fill(colsum.begin(), colsum.end(), 0.0);
    double row_err = 0.0;
    for (int i = 0; i < n1; ++i) {
      const double* krow = kd + static_cast<size_t>(i) * n2;
      double* prow = pi.data() + static_cast<size_t>(i) * n2;
      const simd::VecD p = simd::VecD::Broadcast(phi[static_cast<size_t>(i)]);
      simd::VecD racc = simd::VecD::Zero();
      int j = 0;
      for (; j + L <= n2; j += L) {
        const simd::VecD pij = (simd::VecD::Load(krow + j) * p) *
                               simd::VecD::Load(psi.data() + j);
        pij.Store(prow + j);
        racc = racc + pij;
        (simd::VecD::Load(colsum.data() + j) + pij)
            .Store(colsum.data() + j);
      }
      double rs = simd::HSum(racc);
      for (; j < n2; ++j) {
        const double pij =
            (krow[j] * phi[static_cast<size_t>(i)]) *
            psi[static_cast<size_t>(j)];
        prow[j] = pij;
        rs += pij;
        colsum[static_cast<size_t>(j)] += pij;
      }
      row_err = std::max(row_err, std::abs(rs - mu(i, 0)));
    }
    simd::VecD cacc = simd::VecD::Zero();
    int j = 0;
    for (; j + L <= n2; j += L) {
      const simd::VecD d = simd::VecD::Load(colsum.data() + j) -
                           simd::VecD::Load(nu.data() + j);
      cacc = simd::Max(cacc, simd::Max(d, simd::VecD::Zero() - d));
    }
    double col_err = simd::HMax(cacc);
    for (; j < n2; ++j)
      col_err = std::max(col_err,
                         std::abs(colsum[static_cast<size_t>(j)] - nu(j, 0)));
    return row_err + col_err;
  };

  SinkhornResult res;
  for (int m = 0; m < opt.max_iters; ++m) {
    for (int j = 0; j < n2; ++j)
      psi[static_cast<size_t>(j)] =
          nu(j, 0) /
          ClampDen(vdot(ktd + static_cast<size_t>(j) * n1, phi.data(), n1));
    for (int i = 0; i < n1; ++i)
      phi[static_cast<size_t>(i)] =
          mu(i, 0) /
          ClampDen(vdot(kd + static_cast<size_t>(i) * n2, psi.data(), n2));
    res.iters = m + 1;
    if ((m + 1) % 5 == 0 || m + 1 == opt.max_iters) {
      if (build_and_error() < opt.tol) {
        res.converged = true;
        break;
      }
    }
  }
  build_and_error();
  res.cost = vdot(cost.data(), pi.data(), n1 * n2);
  res.coupling = std::move(pi);
  return res;
}

// Log-domain variant: potentials f, g with soft-min updates; immune to
// underflow for very small epsilon. Kept verbatim as the reference for
// the SIMD twin below.
SinkhornResult SinkhornLogScalar(const Matrix& cost, const Matrix& mu,
                                 const Matrix& nu,
                                 const SinkhornOptions& opt) {
  const int n1 = cost.rows(), n2 = cost.cols();
  const double eps = opt.epsilon;
  std::vector<double> f(n1, 0.0), g(n2, 0.0);
  std::vector<double> log_mu(n1), log_nu(n2);
  for (int i = 0; i < n1; ++i) log_mu[i] = std::log(std::max(mu(i, 0), kTiny));
  for (int j = 0; j < n2; ++j) log_nu[j] = std::log(std::max(nu(j, 0), kTiny));

  auto softmin_row = [&](int i) {
    // -eps * logsumexp_j ((-C_ij + g_j) / eps)
    double mx = -std::numeric_limits<double>::infinity();
    for (int j = 0; j < n2; ++j)
      mx = std::max(mx, (-cost(i, j) + g[j]) / eps);
    double s = 0.0;
    for (int j = 0; j < n2; ++j)
      s += std::exp((-cost(i, j) + g[j]) / eps - mx);
    return -eps * (mx + std::log(s));
  };
  auto softmin_col = [&](int j) {
    double mx = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < n1; ++i)
      mx = std::max(mx, (-cost(i, j) + f[i]) / eps);
    double s = 0.0;
    for (int i = 0; i < n1; ++i)
      s += std::exp((-cost(i, j) + f[i]) / eps - mx);
    return -eps * (mx + std::log(s));
  };

  SinkhornResult res;
  Matrix pi(n1, n2);
  for (int m = 0; m < opt.max_iters; ++m) {
    for (int j = 0; j < n2; ++j) g[j] = softmin_col(j) + eps * log_nu[j];
    for (int i = 0; i < n1; ++i) f[i] = softmin_row(i) + eps * log_mu[i];
    res.iters = m + 1;
    if ((m + 1) % 5 == 0 || m + 1 == opt.max_iters) {
      for (int i = 0; i < n1; ++i)
        for (int j = 0; j < n2; ++j)
          pi(i, j) = std::exp((f[i] + g[j] - cost(i, j)) / eps);
      if (MarginalError(pi, mu, nu) < opt.tol) {
        res.converged = true;
        break;
      }
    }
  }
  for (int i = 0; i < n1; ++i)
    for (int j = 0; j < n2; ++j)
      pi(i, j) = std::exp((f[i] + g[j] - cost(i, j)) / eps);
  res.coupling = pi;
  res.cost = cost.Dot(pi);
  return res;
}

// Vector twin of the log-domain solver. -C and its transpose are
// precomputed once (negation is exact, so (-c + g) keeps the scalar
// association) and each soft-min stores its shifted arguments in a
// scratch buffer: one fused max pass (max is order-independent, so the
// vector fold is exact), then one vector-exp accumulation pass instead
// of recomputing the argument per element. logsumexp sums are
// reassociated and simd::Exp is ~1 ulp vs std::exp, hence "close", not
// bit-equal.
SinkhornResult SinkhornLogSimd(const Matrix& cost, const Matrix& mu,
                               const Matrix& nu,
                               const SinkhornOptions& opt) {
  const int n1 = cost.rows(), n2 = cost.cols();
  const double eps = opt.epsilon;
  constexpr int L = simd::kDoubleLanes;
  Matrix mc(n1, n2);
  for (int i = 0; i < n1; ++i)
    for (int j = 0; j < n2; ++j) mc(i, j) = -cost(i, j);
  Matrix mct = mc.Transpose();
  const double* mcd = mc.data();
  const double* mctd = mct.data();
  std::vector<double> f(static_cast<size_t>(n1), 0.0);
  std::vector<double> g(static_cast<size_t>(n2), 0.0);
  std::vector<double> log_mu(static_cast<size_t>(n1));
  std::vector<double> log_nu(static_cast<size_t>(n2));
  for (int i = 0; i < n1; ++i)
    log_mu[static_cast<size_t>(i)] = std::log(std::max(mu(i, 0), kTiny));
  for (int j = 0; j < n2; ++j)
    log_nu[static_cast<size_t>(j)] = std::log(std::max(nu(j, 0), kTiny));
  std::vector<double> tbuf(static_cast<size_t>(std::max(n1, n2)));
  std::vector<double> colsum(static_cast<size_t>(n2));
  const simd::VecD epsv = simd::VecD::Broadcast(eps);

  // -eps * logsumexp_t ((row[t] + add[t]) / eps) over t in [0, n).
  const auto softmin = [&](const double* row, const double* add, int n) {
    double mx = -std::numeric_limits<double>::infinity();
    int t = 0;
    if constexpr (L > 1) {
      if (n >= L) {
        simd::VecD macc = simd::VecD::Broadcast(mx);
        for (; t + L <= n; t += L) {
          const simd::VecD x =
              (simd::VecD::Load(row + t) + simd::VecD::Load(add + t)) / epsv;
          x.Store(tbuf.data() + t);
          macc = simd::Max(macc, x);
        }
        mx = simd::HMax(macc);
      }
    }
    for (; t < n; ++t) {
      tbuf[static_cast<size_t>(t)] = (row[t] + add[t]) / eps;
      mx = std::max(mx, tbuf[static_cast<size_t>(t)]);
    }
    double s = 0.0;
    t = 0;
    if constexpr (L > 1) {
      if (n >= L) {
        const simd::VecD mxv = simd::VecD::Broadcast(mx);
        simd::VecD acc = simd::VecD::Zero();
        for (; t + L <= n; t += L)
          acc = acc + simd::Exp(simd::VecD::Load(tbuf.data() + t) - mxv);
        s = simd::HSum(acc);
      }
    }
    for (; t < n; ++t) s += std::exp(tbuf[static_cast<size_t>(t)] - mx);
    return -eps * (mx + std::log(s));
  };

  Matrix pi(n1, n2);
  // pi = exp((f_i + g_j - C_ij) / eps) fused with the marginal sums.
  const auto build_and_error = [&] {
    std::fill(colsum.begin(), colsum.end(), 0.0);
    double row_err = 0.0;
    for (int i = 0; i < n1; ++i) {
      const double* mrow = mcd + static_cast<size_t>(i) * n2;
      double* prow = pi.data() + static_cast<size_t>(i) * n2;
      const simd::VecD fi =
          simd::VecD::Broadcast(f[static_cast<size_t>(i)]);
      simd::VecD racc = simd::VecD::Zero();
      int j = 0;
      for (; j + L <= n2; j += L) {
        const simd::VecD pij = simd::Exp(
            ((fi + simd::VecD::Load(g.data() + j)) +
             simd::VecD::Load(mrow + j)) /
            epsv);
        pij.Store(prow + j);
        racc = racc + pij;
        (simd::VecD::Load(colsum.data() + j) + pij)
            .Store(colsum.data() + j);
      }
      double rs = simd::HSum(racc);
      for (; j < n2; ++j) {
        const double pij = std::exp(
            ((f[static_cast<size_t>(i)] + g[static_cast<size_t>(j)]) +
             mrow[j]) /
            eps);
        prow[j] = pij;
        rs += pij;
        colsum[static_cast<size_t>(j)] += pij;
      }
      row_err = std::max(row_err, std::abs(rs - mu(i, 0)));
    }
    double col_err = 0.0;
    for (int j = 0; j < n2; ++j)
      col_err = std::max(col_err,
                         std::abs(colsum[static_cast<size_t>(j)] - nu(j, 0)));
    return row_err + col_err;
  };

  SinkhornResult res;
  for (int m = 0; m < opt.max_iters; ++m) {
    for (int j = 0; j < n2; ++j)
      g[static_cast<size_t>(j)] =
          softmin(mctd + static_cast<size_t>(j) * n1, f.data(), n1) +
          eps * log_nu[static_cast<size_t>(j)];
    for (int i = 0; i < n1; ++i)
      f[static_cast<size_t>(i)] =
          softmin(mcd + static_cast<size_t>(i) * n2, g.data(), n2) +
          eps * log_mu[static_cast<size_t>(i)];
    res.iters = m + 1;
    if ((m + 1) % 5 == 0 || m + 1 == opt.max_iters) {
      if (build_and_error() < opt.tol) {
        res.converged = true;
        break;
      }
    }
  }
  build_and_error();
  res.cost = cost.Dot(pi);
  res.coupling = std::move(pi);
  return res;
}

}  // namespace detail

SinkhornResult Sinkhorn(const Matrix& cost, const Matrix& mu,
                        const Matrix& nu, const SinkhornOptions& opt) {
  OTGED_CHECK(mu.rows() == cost.rows() && mu.cols() == 1);
  OTGED_CHECK(nu.rows() == cost.cols() && nu.cols() == 1);
  OTGED_CHECK(opt.epsilon > 0.0);
  OTGED_CHECK_MSG(std::abs(mu.Sum() - nu.Sum()) < 1e-6,
                  "total masses must agree");
  if (opt.log_domain) return detail::SinkhornLogSimd(cost, mu, nu, opt);
  return detail::SinkhornPlainSimd(cost, mu, nu, opt);
}

SinkhornResult SolveGedOt(const Matrix& cost, const SinkhornOptions& opt) {
  const int n1 = cost.rows(), n2 = cost.cols();
  OTGED_CHECK(n1 <= n2);
  // Extend with the zero dummy row (Eq. 11).
  Matrix ext = cost.ConcatRows(Matrix(1, n2, 0.0));
  Matrix mu = Matrix::ColVec(n1 + 1, 1.0);
  mu(n1, 0) = static_cast<double>(n2 - n1);
  Matrix nu = Matrix::ColVec(n2, 1.0);
  // Degenerate case n1 == n2: dummy mass 0 is fine in log/plain updates
  // (row scaling sends that row to ~0).
  SinkhornResult full = Sinkhorn(ext, mu, nu, opt);
  SinkhornResult res;
  res.coupling = full.coupling.SliceRows(0, n1);
  res.cost = cost.Dot(res.coupling);
  res.iters = full.iters;
  res.converged = full.converged;
  return res;
}

}  // namespace otged
