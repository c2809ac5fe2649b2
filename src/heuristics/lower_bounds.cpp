#include "heuristics/lower_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "assignment/hungarian.hpp"
#include "heuristics/bipartite.hpp"

namespace otged {

double BranchLowerBound(const Graph& g1, const Graph& g2) {
  if (g1.NumNodes() + g2.NumNodes() == 0) return 0.0;
  // Riesen-Bunke's degree cost is half-counted: every edge edit has two
  // endpoints, so charging |d_i - d_j| / 2 per endpoint never exceeds
  // reality.
  return SolveAssignment(
             BipartiteCostMatrix(g1, g2, /*use_neighbor_labels=*/false))
      .cost;
}

int BestLowerBound(const Graph& g1, const Graph& g2) {
  int label_set = LabelSetLowerBound(g1, g2);
  // The BRANCH LAP value is a real lower bound; its ceiling is still one
  // because the GED is integral.
  int branch = static_cast<int>(std::ceil(BranchLowerBound(g1, g2) - 1e-9));
  return std::max(label_set, branch);
}

}  // namespace otged
