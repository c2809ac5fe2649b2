/// \file sinkhorn.hpp
/// \brief Entropic optimal transport via the Sinkhorn algorithm
/// (Algorithm 1 of the paper), including the GED-specific dummy-row
/// extension of Section 4.2.
#ifndef OTGED_OT_SINKHORN_HPP_
#define OTGED_OT_SINKHORN_HPP_

#include "core/matrix.hpp"

namespace otged {

/// Options for the Sinkhorn solver.
struct SinkhornOptions {
  double epsilon = 0.05;   ///< entropic regularization coefficient
  int max_iters = 100;     ///< maximum dual update sweeps
  double tol = 1e-9;       ///< early-exit tolerance on marginal violation
  bool log_domain = false; ///< log-space updates (stable for tiny epsilon)
};

/// Result of an entropic OT solve.
struct SinkhornResult {
  Matrix coupling;     ///< optimal coupling (same shape as the cost)
  double cost = 0.0;   ///< transport cost <C, pi>
  int iters = 0;       ///< sweeps performed
  bool converged = false;
};

/// Solves min_{pi in Pi(mu, nu)} <C, pi> + eps * H(pi) by alternating
/// dual scaling. `mu` (rows x 1) and `nu` (cols x 1) are the mass
/// distributions; total masses must agree.
SinkhornResult Sinkhorn(const Matrix& cost, const Matrix& mu,
                        const Matrix& nu, const SinkhornOptions& opt = {});

/// The paper's GED OT formulation (Eq. 11): extends the n1 x n2 cost with
/// a zero dummy row absorbing the (n2 - n1) unmatched G2 nodes, runs
/// Sinkhorn with mu = [1,...,1, n2-n1], nu = 1, and returns the coupling
/// with the dummy row removed (n1 x n2) plus w1 = <C, pi>.
SinkhornResult SolveGedOt(const Matrix& cost, const SinkhornOptions& opt = {});

namespace detail {

/// Scalar / SIMD twins of Sinkhorn. Sinkhorn always runs the SIMD twin;
/// the scalar twins are the references that tests and
/// bench_micro_kernels compare it against. Both hoist the kernel matrix
/// (and its transpose) out of the iteration loop. The scalar twins
/// replicate the original Matrix-expression arithmetic value-for-value
/// (same dot order, same CwiseDiv clamp, same marginal-check cadence);
/// the SIMD twins reassociate the reductions and use the vector exp, so
/// they track the scalar twins to a few ulp per entry rather than
/// bit-for-bit.
SinkhornResult SinkhornPlainScalar(const Matrix& cost, const Matrix& mu,
                                   const Matrix& nu,
                                   const SinkhornOptions& opt);
SinkhornResult SinkhornPlainSimd(const Matrix& cost, const Matrix& mu,
                                 const Matrix& nu,
                                 const SinkhornOptions& opt);
SinkhornResult SinkhornLogScalar(const Matrix& cost, const Matrix& mu,
                                 const Matrix& nu,
                                 const SinkhornOptions& opt);
SinkhornResult SinkhornLogSimd(const Matrix& cost, const Matrix& mu,
                               const Matrix& nu, const SinkhornOptions& opt);

}  // namespace detail

}  // namespace otged

#endif  // OTGED_OT_SINKHORN_HPP_
