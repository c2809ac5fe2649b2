#include "exact/branch_and_bound.hpp"

#include <algorithm>
#include <vector>

#include "exact/search_common.hpp"

namespace otged {

using internal::DfsState;
using internal::Searcher;

namespace {

/// Sequential DFS on the do/undo scratch state. The budget counts node
/// *expansions* (internal nodes whose children are generated), the same
/// accounting AstarGed uses for popped non-goal states; a search that
/// exhausts its tree with exactly `budget` expansions is complete. The
/// check runs before an expansion, so at most `budget` expansions ever
/// happen — the old driver's post-increment admitted budget + 1 visits
/// and then mislabeled exactly-exhausted searches as incomplete.
struct SeqDriver {
  const Searcher& searcher;
  long budget;
  long expansions = 0;
  /// Prune bound: seeded min(ub, threshold) + 1, strict improvements only.
  int best_ged;
  NodeMatching best_matching;
  bool complete = true;  ///< search space exhausted within budget

  /// Per-depth child rankings (RankChildren keys), reused across sibling
  /// subtrees so the hot loop never allocates after warmup.
  std::vector<std::vector<int>> ranked;

  // otged-lint: hot-path
  void Dfs(DfsState& s) {
    if (s.depth == searcher.ctx().n1) {
      // Leaves cost g + h exactly (HeuristicOf degenerates to the
      // completion cost once every G1 node is mapped).
      const int total = s.g + searcher.HeuristicOf(s);
      if (total < best_ged) {
        best_ged = total;
        best_matching = searcher.ExtractMatching(s);
      }
      return;
    }
    if (expansions >= budget) {
      complete = false;
      return;
    }
    ++expansions;
    // Children by true cost delta, to find good bounds early; those the
    // current bound prunes are never ranked. best_ged only falls, so the
    // loop re-checks each survivor against it.
    std::vector<int>& kids = ranked[s.depth];
    searcher.RankChildren(s, best_ged, &kids);
    for (const int key : kids) {
      const int delta = Searcher::KeyDelta(key), v = Searcher::KeyNode(key);
      if (s.g + delta >= best_ged) continue;  // cheap pre-prune
      searcher.Push(&s, v, delta);
      // Admissible prunes: the O(1) bound, then (above the leaves) the
      // anchor-aware one.
      if (s.g + searcher.HeuristicOf(s) >= best_ged ||
          (s.depth < searcher.ctx().n1 &&
           s.g + searcher.AnchorHeuristic(s, best_ged - s.g) >= best_ged)) {
        searcher.Pop(&s);
        continue;
      }
      Dfs(s);
      searcher.Pop(&s);
      if (!complete) return;
    }
  }
};

}  // namespace

GedSearchResult BranchAndBoundGed(const Graph& g1, const Graph& g2,
                                  const BnbOptions& opt) {
  OTGED_CHECK(g1.NumNodes() <= g2.NumNodes());
  Searcher searcher(g1, g2);

  // Upper bound: the seed, capped by the identity-order greedy matching
  // (always feasible).
  int ub = opt.initial_upper_bound;
  NodeMatching greedy(static_cast<size_t>(g1.NumNodes()));
  for (int i = 0; i < g1.NumNodes(); ++i) greedy[i] = i;
  const int greedy_cost = EditCostFromMatching(g1, g2, greedy);
  if (ub < 0 || greedy_cost < ub) ub = greedy_cost;
  const int cut = opt.threshold >= 0 ? std::min(ub, opt.threshold) : ub;

  // Seed: best_ged = cut + 1 so a path costing exactly `cut` is still
  // explored.
  SeqDriver driver{searcher, opt.max_visits, 0, cut + 1, {}, true, {}};
  driver.ranked.resize(static_cast<size_t>(std::max(g1.NumNodes(), 1)));
  DfsState root = searcher.MakeDfs();
  driver.Dfs(root);

  GedSearchResult res;
  res.expansions = driver.expansions;
  if (driver.best_ged <= cut) {
    res.ged = driver.best_ged;
    res.matching = std::move(driver.best_matching);
    res.exact = driver.complete;
    return res;
  }
  // Nothing within `cut`: the upper bound stands, with the greedy
  // matching as its witness when it has one. An exhausted tree proves
  // GED > cut; with a feasible ub that happens only when a threshold
  // cut below it.
  res.ged = ub;
  if (greedy_cost == ub) res.matching = std::move(greedy);
  res.exact = false;
  res.above_threshold = driver.complete;
  return res;
}

}  // namespace otged
