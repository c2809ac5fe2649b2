/// \file lapjv.hpp
/// \brief Classic Jonker-Volgenant LAP solver (column reduction, reduction
/// transfer, augmenting row reduction, then augmentation), the engine
/// behind the paper's "VJ" baseline [15].
///
/// Functionally equivalent to hungarian.hpp's solver on the same input;
/// kept as a distinct implementation because (a) the paper treats
/// Hungarian and VJ as distinct baselines and (b) the two solvers
/// cross-check each other in the property tests.
#ifndef OTGED_ASSIGNMENT_LAPJV_HPP_
#define OTGED_ASSIGNMENT_LAPJV_HPP_

#include "assignment/hungarian.hpp"

namespace otged {

/// Solves min-cost perfect matching on a square cost matrix with the
/// Jonker-Volgenant algorithm. Same contract as SolveAssignment().
AssignmentResult SolveAssignmentJV(const Matrix& cost);

namespace detail {

/// SolveAssignmentJV always runs the SIMD twin; the scalar twin is the
/// reference that tests and bench_micro_kernels compare it against.
/// Their outputs are identical, not merely close: reduced costs keep the
/// scalar association (cost - v), two-smallest scans replay the
/// sequential tie-breaks, and Dijkstra's column picks keep the
/// first-argmin order.
AssignmentResult SolveAssignmentJVScalar(const Matrix& cost);
AssignmentResult SolveAssignmentJVSimd(const Matrix& cost);

}  // namespace detail

}  // namespace otged

#endif  // OTGED_ASSIGNMENT_LAPJV_HPP_
