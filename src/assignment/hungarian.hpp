/// \file hungarian.hpp
/// \brief O(n^3) linear assignment via shortest augmenting paths with
/// potentials (the "Hungarian" solver used across the library: heuristic
/// GED baselines, the GEDGW conditional-gradient subproblem, and the
/// k-best matching framework).
#ifndef OTGED_ASSIGNMENT_HUNGARIAN_HPP_
#define OTGED_ASSIGNMENT_HUNGARIAN_HPP_

#include <vector>

#include "core/matrix.hpp"

namespace otged {

/// Cost value treated as "forbidden" by the solvers. Any assignment using
/// a forbidden entry is considered infeasible.
inline constexpr double kAssignInf = 1e18;

/// Result of a (square) assignment problem.
struct AssignmentResult {
  std::vector<int> row_to_col;  ///< row i assigned to column row_to_col[i]
  double cost = 0.0;            ///< total cost of the assignment
  bool feasible = true;         ///< false if forced to use a forbidden entry
};

/// Solves min-cost perfect matching on a square cost matrix (n x n) in
/// O(n^3) using the Jonker-Volgenant-style shortest augmenting path
/// method with dual potentials. Entries >= kAssignInf / 2 are forbidden.
AssignmentResult SolveAssignment(const Matrix& cost);

/// Rectangular convenience wrapper for n1 <= n2: pads rows with zero cost
/// so that every row is assigned a distinct column; returns row_to_col of
/// size n1 (padding rows dropped).
AssignmentResult SolveAssignmentRect(const Matrix& cost);

/// Maximizes total weight instead of minimizing cost (used by the k-best
/// matching framework where weights come from a coupling matrix).
AssignmentResult SolveMaxWeightAssignment(const Matrix& weight);

}  // namespace otged

#endif  // OTGED_ASSIGNMENT_HUNGARIAN_HPP_
