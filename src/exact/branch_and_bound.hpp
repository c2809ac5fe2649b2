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
  /// Feasible upper bound on the GED (the cost of some edit path); -1 =
  /// derive one greedily. The identity matching's cost caps it either way.
  int initial_upper_bound = -1;
  /// Decide `GED <= threshold` instead of minimizing: the search prunes
  /// every path above min(upper bound, threshold). -1 = no threshold.
  int threshold = -1;
};

/// Exact GED by DFS branch and bound. Returns the best result found,
/// never above the upper bound (the seed, or the identity matching's
/// cost when that is lower): `matching` realizes `ged`, or is empty when
/// the search found nothing under a seed it has no witness for.
///
/// With `threshold` >= 0 the search settles one of three outcomes:
///   - it found a path within the threshold: `ged` is the exact GED with
///     `exact == true` if the tree was exhausted, a feasible distance
///     <= threshold with `exact == false` if the budget ran out;
///   - the tree was exhausted without one: `above_threshold == true`
///     (GED > threshold is proven) and `exact == false`, `ged` the upper
///     bound;
///   - the budget ran out first: neither flag, `ged` the upper bound.
/// A completed search finds the same optimal matching with or without a
/// threshold: child order never depends on the bound, and the bound
/// only prunes paths costlier than the optimum.
///
/// Runs on the do/undo structure-of-arrays scratch state. Each expansion
/// ranks its children with Searcher::RankChildren (O(1) bit counting per
/// child on unlabeled edges, pruned children dropped before the sort);
/// each child the O(1) bound keeps is then checked against the
/// anchor-aware bound (Searcher::AnchorHeuristic, as in the AStar-BMao
/// and LSa exact solvers), which prices the edges between unmapped and
/// mapped nodes. `bnb_expand_powerlaw` in BENCH_kernels.json records the
/// per-expansion cost, `bnb_prove_threshold` the time to decide a
/// hard-range pair. Requires n1 <= n2 <= kMaxExactNodes.
GedSearchResult BranchAndBoundGed(const Graph& g1, const Graph& g2,
                                  const BnbOptions& opt = {});

}  // namespace otged

#endif  // OTGED_EXACT_BRANCH_AND_BOUND_HPP_
