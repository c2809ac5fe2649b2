#include "ot/gromov.hpp"

#include <algorithm>
#include <cmath>

#include "assignment/hungarian.hpp"
#include "core/simd.hpp"

namespace otged {

namespace {

// a * b with MatMul's exact-zero skip on `a` and the dense axpy inner
// loop vectorized (j lanes stay independent and the k accumulation order
// is preserved, so entries match Matrix::MatMul bit for bit).
Matrix MatMulSimd(const Matrix& a, const Matrix& b) {
  OTGED_CHECK(a.cols() == b.rows());
  const int kk = a.cols(), nn = b.cols();
  Matrix r(a.rows(), nn, 0.0);
  constexpr int L = simd::kDoubleLanes;
  for (int i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + static_cast<size_t>(i) * kk;
    double* out = r.data() + static_cast<size_t>(i) * nn;
    for (int k = 0; k < kk; ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.data() + static_cast<size_t>(k) * nn;
      const simd::VecD av = simd::VecD::Broadcast(aik);
      int j = 0;
      for (; j + L <= nn; j += L)
        (simd::VecD::Load(out + j) + av * simd::VecD::Load(brow + j))
            .Store(out + j);
      for (; j < nn; ++j) out[j] += aik * brow[j];
    }
  }
  return r;
}

// The cross term C1 pi C2^T evaluated as (C2 (C1 pi)^T)^T. C1 pi skips
// C1's zero entries already; the flip lets the second product skip C2's
// zeros too instead of grinding a dense intermediate against them (cost
// matrices are adjacency-like and sparse; the intermediate never is).
Matrix CrossTermSimd(const Matrix& c1, const Matrix& c2, const Matrix& pi) {
  return MatMulSimd(c2, MatMulSimd(c1, pi).Transpose()).Transpose();
}

}  // namespace

namespace detail {

Matrix GwTensorProductScalar(const Matrix& c1, const Matrix& c2,
                             const Matrix& pi) {
  const int n1 = c1.rows(), n2 = c2.rows();
  Matrix p = pi.RowSums();               // n1 x 1
  Matrix q = pi.ColSums().Transpose();   // n2 x 1
  Matrix c1sq = c1.Hadamard(c1);
  Matrix c2sq = c2.Hadamard(c2);
  Matrix r = c1sq.MatMul(p);  // n1 x 1
  Matrix c = c2sq.MatMul(q);  // n2 x 1
  Matrix cross = c1.MatMul(pi).MatMul(c2.Transpose());  // n1 x n2
  Matrix out(n1, n2);
  for (int i = 0; i < n1; ++i)
    for (int k = 0; k < n2; ++k)
      out(i, k) = r(i, 0) + c(k, 0) - 2.0 * cross(i, k);
  return out;
}

Matrix GwTensorProductSimd(const Matrix& c1, const Matrix& c2,
                           const Matrix& pi) {
  const int n1 = c1.rows(), n2 = c2.rows();
  constexpr int L = simd::kDoubleLanes;
  const double* pid = pi.data();
  // Marginals of pi: row sums folded per row, column sums accumulated
  // lane-parallel across rows.
  std::vector<double> p(static_cast<size_t>(n1));
  std::vector<double> q(static_cast<size_t>(n2), 0.0);
  for (int i = 0; i < n1; ++i) {
    const double* row = pid + static_cast<size_t>(i) * n2;
    simd::VecD acc = simd::VecD::Zero();
    int j = 0;
    for (; j + L <= n2; j += L) {
      const simd::VecD x = simd::VecD::Load(row + j);
      acc = acc + x;
      (simd::VecD::Load(q.data() + j) + x).Store(q.data() + j);
    }
    double s = simd::HSum(acc);
    for (; j < n2; ++j) {
      s += row[j];
      q[static_cast<size_t>(j)] += row[j];
    }
    p[static_cast<size_t>(i)] = s;
  }
  // r_i = sum_j C1(i,j)^2 p_j and c_k = sum_j C2(k,j)^2 q_j with the
  // Hadamard squares folded into the pass (no materialized C^2).
  const auto sq_dot = [](const double* row, const double* w, int n) {
    simd::VecD acc = simd::VecD::Zero();
    int j = 0;
    for (; j + L <= n; j += L) {
      const simd::VecD x = simd::VecD::Load(row + j);
      acc = acc + (x * x) * simd::VecD::Load(w + j);
    }
    double s = simd::HSum(acc);
    for (; j < n; ++j) s += (row[j] * row[j]) * w[j];
    return s;
  };
  std::vector<double> r(static_cast<size_t>(n1)), c(static_cast<size_t>(n2));
  for (int i = 0; i < n1; ++i)
    r[static_cast<size_t>(i)] =
        sq_dot(c1.data() + static_cast<size_t>(i) * n1, p.data(), n1);
  for (int k = 0; k < n2; ++k)
    c[static_cast<size_t>(k)] =
        sq_dot(c2.data() + static_cast<size_t>(k) * n2, q.data(), n2);
  Matrix cross = CrossTermSimd(c1, c2, pi);
  Matrix out(n1, n2);
  const simd::VecD two = simd::VecD::Broadcast(2.0);
  for (int i = 0; i < n1; ++i) {
    const double* xrow = cross.data() + static_cast<size_t>(i) * n2;
    double* orow = out.data() + static_cast<size_t>(i) * n2;
    const simd::VecD ri = simd::VecD::Broadcast(r[static_cast<size_t>(i)]);
    int k = 0;
    for (; k + L <= n2; k += L)
      ((ri + simd::VecD::Load(c.data() + k)) -
       two * simd::VecD::Load(xrow + k))
          .Store(orow + k);
    for (; k < n2; ++k)
      orow[k] =
          (r[static_cast<size_t>(i)] + c[static_cast<size_t>(k)]) -
          2.0 * xrow[k];
  }
  return out;
}

Matrix GwTensorProductClassesScalar(const std::vector<Matrix>& c1,
                                    const std::vector<Matrix>& c2,
                                    const Matrix& pi) {
  const int n1 = pi.rows(), n2 = pi.cols();
  Matrix out(n1, n2, pi.Sum());
  for (size_t c = 0; c < c1.size(); ++c) {
    OTGED_CHECK(c1[c].rows() == n1 && c2[c].rows() == n2);
    out -= c1[c].MatMul(pi).MatMul(c2[c].Transpose());
  }
  return out;
}

Matrix GwTensorProductClassesSimd(const std::vector<Matrix>& c1,
                                  const std::vector<Matrix>& c2,
                                  const Matrix& pi) {
  const int n1 = pi.rows(), n2 = pi.cols();
  Matrix out(n1, n2, pi.Sum());
  for (size_t c = 0; c < c1.size(); ++c) {
    OTGED_CHECK(c1[c].rows() == n1 && c2[c].rows() == n2);
    out -= CrossTermSimd(c1[c], c2[c], pi);
  }
  return out;
}

}  // namespace detail

Matrix GwTensorProduct(const Matrix& c1, const Matrix& c2, const Matrix& pi) {
  OTGED_CHECK(c1.rows() == c1.cols() && c2.rows() == c2.cols());
  OTGED_CHECK(pi.rows() == c1.rows() && pi.cols() == c2.rows());
  return detail::GwTensorProductSimd(c1, c2, pi);
}

double GwObjective(const Matrix& c1, const Matrix& c2, const Matrix& pi) {
  return pi.Dot(GwTensorProduct(c1, c2, pi));
}

Matrix GwTensorProductClasses(const std::vector<Matrix>& c1,
                              const std::vector<Matrix>& c2,
                              const Matrix& pi) {
  OTGED_CHECK(!c1.empty() && c1.size() == c2.size());
  return detail::GwTensorProductClassesSimd(c1, c2, pi);
}

std::vector<Matrix> EdgeClassMatrices(const Graph& g, int padded_size,
                                      const std::vector<Label>& alphabet) {
  const int n = padded_size;
  OTGED_CHECK(g.NumNodes() <= n);
  std::vector<Matrix> classes(alphabet.size() + 2, Matrix(n, n, 0.0));
  // Class 0: no edge (diagonal and dummy slots included).
  classes[0] = Matrix::Ones(n, n);
  auto class_of = [&](Label l) -> int {
    if (l == 0) return 1;
    for (size_t i = 0; i < alphabet.size(); ++i)
      if (alphabet[i] == l) return static_cast<int>(i) + 2;
    OTGED_CHECK_MSG(false, "edge label outside the alphabet");
    return -1;
  };
  for (int u = 0; u < g.NumNodes(); ++u) {
    for (int v : g.Neighbors(u)) {
      int c = class_of(g.edge_label(u, v));
      classes[c](u, v) = 1.0;
      classes[0](u, v) = 0.0;
    }
  }
  return classes;
}

CgResult FusedGwConditionalGradientGeneral(
    const Matrix& m,
    const std::function<Matrix(const Matrix&)>& tensor_product, double alpha,
    const CgOptions& opt) {
  OTGED_CHECK(m.rows() == m.cols());
  const int n = m.rows();

  auto objective = [&](const Matrix& pi) {
    return m.Dot(pi) + 0.5 * alpha * pi.Dot(tensor_product(pi));
  };

  // Uniform doubly-stochastic start unless the caller warm-starts.
  Matrix pi = opt.init != nullptr ? *opt.init : Matrix(n, n, 1.0 / n);
  OTGED_CHECK(pi.rows() == n && pi.cols() == n);
  CgResult res;
  double prev = objective(pi);

  for (int it = 0; it < opt.max_iters; ++it) {
    res.iters = it + 1;
    // Gradient of the fused objective (the quadratic form is symmetric,
    // so d/dpi (1/2 <pi, L ⊗ pi>) = L ⊗ pi).
    Matrix lp = tensor_product(pi);
    Matrix grad = m + lp * alpha;
    // Linear subproblem over the Birkhoff polytope: permutation vertex.
    AssignmentResult lap = SolveAssignment(grad);
    Matrix target(n, n, 0.0);
    for (int i = 0; i < n; ++i) target(i, lap.row_to_col[i]) = 1.0;

    Matrix delta = target - pi;
    // Exact line search on f(pi + gamma * delta), a quadratic in gamma:
    //   a = (alpha/2) <delta, L ⊗ delta>,
    //   b = <delta, M> + alpha <delta, L ⊗ pi>.
    double a = 0.5 * alpha * delta.Dot(tensor_product(delta));
    double b = delta.Dot(m) + alpha * delta.Dot(lp);
    double gamma;
    if (a > 1e-15) {
      gamma = std::clamp(-b / (2.0 * a), 0.0, 1.0);
    } else {
      gamma = (a + b < 0.0) ? 1.0 : 0.0;  // f(1) - f(0) = a + b
    }
    if (gamma <= 0.0) break;
    pi += delta * gamma;
    double cur = objective(pi);
    if (prev - cur < opt.tol) {
      prev = cur;
      break;
    }
    prev = cur;
  }

  res.coupling = pi;
  res.objective = prev;
  return res;
}

CgResult FusedGwConditionalGradient(const Matrix& m, const Matrix& a1,
                                    const Matrix& a2, double alpha,
                                    const CgOptions& opt) {
  const int n = m.rows();
  OTGED_CHECK(a1.rows() == n && a1.cols() == n);
  OTGED_CHECK(a2.rows() == n && a2.cols() == n);
  return FusedGwConditionalGradientGeneral(
      m, [&](const Matrix& pi) { return GwTensorProduct(a1, a2, pi); },
      alpha, opt);
}

}  // namespace otged
