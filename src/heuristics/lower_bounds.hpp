/// \file lower_bounds.hpp
/// \brief Admissible GED lower bounds beyond the label-set bound (Eq. 22):
/// the BRANCH-style bipartite bound, which solves a linear assignment over
/// node substitution costs with half-counted incident edges. Lower bounds
/// prune the k-best GEP search and certify heuristic results
/// (LB == UB proves optimality).
#ifndef OTGED_HEURISTICS_LOWER_BOUNDS_HPP_
#define OTGED_HEURISTICS_LOWER_BOUNDS_HPP_

#include "graph/graph.hpp"

namespace otged {

/// BRANCH-style bipartite lower bound: each node pair's substitution cost
/// is label mismatch + half the degree gap; deletions/insertions cost
/// 1 + degree/2. Each edge edit is counted at most 1/2 on each endpoint,
/// so the LAP optimum never exceeds the true GED. The matrix is
/// BipartiteCostMatrix(g1, g2, false), HungarianGed's, solved by
/// SolveAssignment: the value is that solution's cost. O((n1+n2)^3).
double BranchLowerBound(const Graph& g1, const Graph& g2);

/// The tightest cheap bound available: max of the label-set bound and the
/// (rounded-up) BRANCH bound.
int BestLowerBound(const Graph& g1, const Graph& g2);

}  // namespace otged

#endif  // OTGED_HEURISTICS_LOWER_BOUNDS_HPP_
