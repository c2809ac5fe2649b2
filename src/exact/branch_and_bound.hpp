/// \file branch_and_bound.hpp
/// \brief Depth-first branch-and-bound exact GED verifier.
///
/// This is the repository's stand-in for the exact graph-similarity
/// engines the paper compares against in Fig. 15 (Nass [21] and
/// AStar-BMao [8]): a memory-light exponential-time exact solver whose
/// running time is highly sensitive to graph size and GED — exactly the
/// property the figure measures. It is also used to exactify small
/// dataset pairs when A*'s memory profile is unfavourable.
#ifndef OTGED_EXACT_BRANCH_AND_BOUND_HPP_
#define OTGED_EXACT_BRANCH_AND_BOUND_HPP_

#include <optional>

#include "exact/astar.hpp"

namespace otged {

struct BnbOptions {
  /// Node-expansion budget: internal search-tree nodes whose children are
  /// generated, the same accounting AstarGed reports in `expansions`. A
  /// search whose tree takes exactly this many expansions is complete
  /// (`exact == true`); one more node needed means incomplete.
  long max_visits = 5'000'000;
  int initial_upper_bound = -1; ///< -1 = derive one greedily
};

/// Exact GED by DFS branch and bound with the same admissible heuristic
/// as AstarGed. Returns the best result found; `exact` is true iff the
/// search space was exhausted within budget (result proven optimal).
/// Runs on the do/undo structure-of-arrays scratch state, exploring the
/// identical tree in the identical order as the historical copy-based
/// driver — only cheaper per node. Each expansion ranks its children
/// with Searcher::RankChildren: O(1) bit counting per child on
/// unlabeled edges, each child's bound from the incremental counters,
/// and pruned children dropped before the sort — about a third of the
/// per-expansion cost of the per-child neighbour walk and full sort it
/// replaced, on unlabeled power-law pairs (`bnb_expand_powerlaw` in
/// BENCH_kernels.json records it). Requires n1 <= n2 <= kMaxExactNodes.
GedSearchResult BranchAndBoundGed(const Graph& g1, const Graph& g2,
                                  const BnbOptions& opt = {});

}  // namespace otged

#endif  // OTGED_EXACT_BRANCH_AND_BOUND_HPP_
