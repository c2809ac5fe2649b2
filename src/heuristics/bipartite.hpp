/// \file bipartite.hpp
/// \brief Classical bipartite-matching GED heuristics: Hungarian [39],
/// VJ [15], and "Classic" (best of both), as used in the paper's baseline
/// suite. Each returns a feasible edit path, so the reported GED is
/// always an upper bound (feasibility 100%, as in Tables 3-4).
#ifndef OTGED_HEURISTICS_BIPARTITE_HPP_
#define OTGED_HEURISTICS_BIPARTITE_HPP_

#include "assignment/hungarian.hpp"
#include "editpath/edit_path.hpp"
#include "graph/graph.hpp"

namespace otged {

/// Output of a heuristic GED computation.
struct HeuristicResult {
  int ged = 0;                ///< edit-path length (feasible upper bound)
  NodeMatching matching;      ///< induced complete matching (n1 <= n2)
  std::vector<EditOp> path;   ///< the edit path itself
};

/// Riesen-Bunke bipartite GED with the Hungarian LAP solver. The
/// substitution cost uses label mismatch + degree-difference/2 (the
/// hand-crafted cost of the paper's Fig. 3). Requires n1 <= n2.
HeuristicResult HungarianGed(const Graph& g1, const Graph& g2);

/// Bipartite GED with the Jonker-Volgenant solver and a richer local
/// structure cost (neighbor-label multiset difference), following the
/// spirit of [15]. Requires n1 <= n2.
HeuristicResult VjGed(const Graph& g1, const Graph& g2);

/// Runs both and returns the result with the shorter edit path.
HeuristicResult ClassicGed(const Graph& g1, const Graph& g2);

/// ClassicGed(g1, g2).ged from `hungarian`, the SolveAssignment solution
/// of BipartiteCostMatrix(g1, g2, false) — the LAP BranchLowerBound also
/// solves — so a caller that already holds it runs only VJ's solve. No
/// edit path is built: each repaired matching is priced by
/// EditCostFromMatching and the cheaper one wins. Requires n1 <= n2.
int ClassicGedFromHungarian(const Graph& g1, const Graph& g2,
                            const AssignmentResult& hungarian);

/// The (n1+n2) x (n1+n2) Riesen-Bunke cost matrix used by HungarianGed;
/// exposed for tests and for OT-based methods that want a hand-crafted
/// cost. `use_neighbor_labels` switches to the VJ-style local cost.
Matrix BipartiteCostMatrix(const Graph& g1, const Graph& g2,
                           bool use_neighbor_labels);

}  // namespace otged

#endif  // OTGED_HEURISTICS_BIPARTITE_HPP_
