/// \file gromov.hpp
/// \brief Gromov-Wasserstein machinery: the 4th-order tensor product
/// L(C1, C2) ⊗ pi in O(n^3) (Peyré-Cuturi-Solomon decomposition) and the
/// conditional-gradient solver for the paper's GEDGW objective (Eq. 17,
/// Algorithm 2).
#ifndef OTGED_OT_GROMOV_HPP_
#define OTGED_OT_GROMOV_HPP_

#include <functional>
#include <vector>

#include "core/matrix.hpp"
#include "graph/graph.hpp"

namespace otged {

/// Computes (L(C1,C2) ⊗ pi)_{i,k} = sum_{j,l} (C1_ij - C2_kl)^2 pi_{j,l}
/// in O(n^3) via r_i + c_k - 2 (C1 pi C2^T)_{i,k}, where
/// r = (C1 ∘ C1) p, c = (C2 ∘ C2) q, p/q = row/col sums of pi.
/// C1 (n1 x n1) and C2 (n2 x n2) must be symmetric.
Matrix GwTensorProduct(const Matrix& c1, const Matrix& c2, const Matrix& pi);

/// GW energy <pi, L(C1,C2) ⊗ pi>.
double GwObjective(const Matrix& c1, const Matrix& c2, const Matrix& pi);

/// Edge-label-aware tensor product (paper Appendix H.1): with each edge
/// slot assigned a *class* (no-edge, or one of the edge labels), the
/// mismatch tensor is L_{i,j,k,l} = 1{class1(i,j) != class2(k,l)} and
///   (L ⊗ pi)_{i,k} = sum(pi) - sum_c (C1^c pi (C2^c)^T)_{i,k},
/// where C1^c / C2^c are the per-class indicator matrices (which must
/// partition all n x n slots, diagonal included). O(K n^3) for K classes;
/// reduces exactly to GwTensorProduct for the two-class unlabeled case.
Matrix GwTensorProductClasses(const std::vector<Matrix>& c1,
                              const std::vector<Matrix>& c2,
                              const Matrix& pi);

/// Per-class indicator matrices of a graph's edge slots: index 0 is the
/// no-edge class (diagonal included), followed by one matrix per entry of
/// `alphabet` (label 0 = unlabeled edges is always class 1).
std::vector<Matrix> EdgeClassMatrices(const Graph& g, int padded_size,
                                      const std::vector<Label>& alphabet);

/// Options for the conditional-gradient (Frank-Wolfe) solver over the
/// Birkhoff polytope Π(1_n, 1_n).
struct CgOptions {
  int max_iters = 30;
  double tol = 1e-7;  ///< stop when the objective improvement is below this
  /// Optional warm-start coupling (defaults to the uniform 1/n matrix).
  /// Large-graph alignment is a non-convex landscape; a structure-aware
  /// start (e.g., an entropic OT plan over degree similarity) matters.
  const Matrix* init = nullptr;
};

/// Result of the fused OT+GW minimization
///   min_pi <pi, M> + (alpha/2) <pi, L(A1,A2) ⊗ pi>.
struct CgResult {
  Matrix coupling;       ///< n x n doubly-stochastic (often a permutation)
  double objective = 0;  ///< final objective value (the GED estimate)
  int iters = 0;
};

/// Minimizes the fused objective by conditional gradient: the linear
/// subproblem min <G, pi> over the Birkhoff polytope is solved exactly at
/// a permutation vertex (Hungarian), and the step size by exact quadratic
/// line search (Eq. 21). `m` is the linear (node-edit) cost, `a1`/`a2`
/// the intra-graph cost matrices (adjacency in GEDGW); all n x n.
CgResult FusedGwConditionalGradient(const Matrix& m, const Matrix& a1,
                                    const Matrix& a2, double alpha = 1.0,
                                    const CgOptions& opt = {});

/// Generalized conditional gradient over any symmetric quadratic term
/// given by its tensor-product map pi -> L ⊗ pi. Used by the edge-labeled
/// GEDGW variant; FusedGwConditionalGradient delegates here.
CgResult FusedGwConditionalGradientGeneral(
    const Matrix& m, const std::function<Matrix(const Matrix&)>& tensor_product,
    double alpha = 1.0, const CgOptions& opt = {});

namespace detail {

/// Scalar / SIMD twins of GwTensorProduct and GwTensorProductClasses.
/// The entry points always run the SIMD twins; the scalar twins are the
/// references that tests and bench_micro_kernels compare them against,
/// and keep the original Matrix-expression arithmetic bit for bit.
/// The SIMD twins restructure the cross term as (C2 (C1 pi)^T)^T so the
/// exact-zero skip rides the sparse cost matrices instead of the dense
/// intermediate, fold the Hadamard squares into the r/c passes, and
/// vectorize every inner loop — reassociated sums, so equal to a few ulp
/// rather than bit-identical.
Matrix GwTensorProductScalar(const Matrix& c1, const Matrix& c2,
                             const Matrix& pi);
Matrix GwTensorProductSimd(const Matrix& c1, const Matrix& c2,
                           const Matrix& pi);
Matrix GwTensorProductClassesScalar(const std::vector<Matrix>& c1,
                                    const std::vector<Matrix>& c2,
                                    const Matrix& pi);
Matrix GwTensorProductClassesSimd(const std::vector<Matrix>& c1,
                                  const std::vector<Matrix>& c2,
                                  const Matrix& pi);

}  // namespace detail

}  // namespace otged

#endif  // OTGED_OT_GROMOV_HPP_
