#include "graph/dataset.hpp"

#include <algorithm>

#include "exact/astar.hpp"
#include "exact/branch_and_bound.hpp"
#include "heuristics/bipartite.hpp"

namespace otged {

double Dataset::AvgNodes() const {
  if (graphs.empty()) return 0.0;
  double s = 0.0;
  for (const Graph& g : graphs) s += g.NumNodes();
  return s / static_cast<double>(graphs.size());
}

double Dataset::AvgEdges() const {
  if (graphs.empty()) return 0.0;
  double s = 0.0;
  for (const Graph& g : graphs) s += g.NumEdges();
  return s / static_cast<double>(graphs.size());
}

int Dataset::MaxNodes() const {
  int m = 0;
  for (const Graph& g : graphs) m = std::max(m, g.NumNodes());
  return m;
}

int Dataset::MaxEdges() const {
  int m = 0;
  for (const Graph& g : graphs) m = std::max(m, g.NumEdges());
  return m;
}

Dataset MakeDataset(DatasetKind kind, int count, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < count; ++i) {
    switch (kind) {
      case DatasetKind::kAids:
        d.name = "AIDS-like";
        d.num_labels = 29;
        d.graphs.push_back(AidsLikeGraph(&rng));
        break;
      case DatasetKind::kLinux:
        d.name = "LINUX-like";
        d.num_labels = 1;
        d.graphs.push_back(LinuxLikeGraph(&rng));
        break;
      case DatasetKind::kImdb:
        d.name = "IMDB-like";
        d.num_labels = 1;
        d.graphs.push_back(ImdbLikeGraph(&rng));
        break;
    }
  }
  return d;
}

namespace {

// Δ budget for a base graph: small graphs use the small range, larger
// graphs the paper's (0, 10] convention.
int DrawEdits(const Graph& g, int max_small, int max_large, Rng* rng) {
  int cap = g.NumNodes() <= 10 ? max_small : max_large;
  cap = std::min(cap, std::max(1, g.NumNodes() + g.NumEdges() - 1));
  return rng->UniformInt(1, cap);
}

// Re-solves a small pair exactly so (ged, matching, path) are optimal.
// The synthetic Δ is a valid upper bound, so A* can never return more.
void ExactifyPair(GedPair* pair, int max_nodes, long budget) {
  if (pair->g2.NumNodes() > max_nodes) return;
  AstarOptions opt;
  opt.max_expansions = budget;
  auto res = AstarGed(pair->g1, pair->g2, opt);
  if (!res.has_value()) return;  // budget exhausted; keep Δ ground truth
  OTGED_CHECK_MSG(res->ged <= pair->ged,
                  "A* exceeded the synthetic-edit upper bound");
  pair->ged = res->ged;
  pair->gt_matching = res->matching;
  pair->gt_path = EditPathFromMatching(pair->g1, pair->g2, res->matching);
  pair->exact = true;
}

}  // namespace

QueryGroup MakeQueryGroup(const Graph& g, int count, int max_edits,
                          int num_labels, Rng* rng) {
  QueryGroup group;
  for (int i = 0; i < count; ++i) {
    SyntheticEditOptions opt;
    opt.num_edits = rng->UniformInt(1, std::max(1, max_edits));
    opt.num_labels = num_labels;
    opt.allow_relabel = num_labels > 1;
    group.pairs.push_back(SyntheticEditPair(g, opt, rng));
  }
  return group;
}

PairSet MakePairSet(const Dataset& dataset, const PairSetOptions& opt) {
  Rng rng(opt.seed);
  PairSet set;
  OTGED_CHECK(!dataset.graphs.empty());
  const int n_graphs = static_cast<int>(dataset.graphs.size());

  // 60/20/20 split of base graphs, as in the paper.
  std::vector<int> idx(n_graphs);
  for (int i = 0; i < n_graphs; ++i) idx[i] = i;
  rng.Shuffle(&idx);
  const int n_train = std::max(1, n_graphs * 6 / 10);
  const int n_test = std::max(1, n_graphs * 2 / 10);
  std::vector<int> train_idx(idx.begin(), idx.begin() + n_train);
  std::vector<int> test_idx(idx.begin() + n_train,
                            idx.begin() + std::min(n_graphs, n_train + n_test));
  std::vector<int> val_idx(idx.begin() + std::min(n_graphs, n_train + n_test),
                           idx.end());
  if (val_idx.empty()) val_idx = test_idx;

  auto edits_for = [&](const Graph& g) {
    return DrawEdits(g, opt.max_edits_small, opt.max_edits_large, &rng);
  };

  // Training pairs: base graph sampled from the train split.
  for (int i = 0; i < opt.num_train_pairs; ++i) {
    const Graph& g = dataset.graphs[train_idx[rng.UniformInt(
        0, static_cast<int>(train_idx.size()) - 1)]];
    SyntheticEditOptions sopt;
    sopt.num_edits = edits_for(g);
    sopt.num_labels = dataset.num_labels;
    sopt.allow_relabel = dataset.num_labels > 1;
    GedPair pair = SyntheticEditPair(g, sopt, &rng);
    if (opt.exactify_small)
      ExactifyPair(&pair, opt.exact_max_nodes, opt.exact_budget);
    set.train.push_back(std::move(pair));
  }

  // Test / validation groups: one group per query graph.
  auto make_groups = [&](const std::vector<int>& pool, int n_queries) {
    std::vector<QueryGroup> groups;
    for (int q = 0; q < n_queries; ++q) {
      const Graph& g = dataset.graphs[pool[rng.UniformInt(
          0, static_cast<int>(pool.size()) - 1)]];
      QueryGroup group;
      for (int p = 0; p < opt.pairs_per_query; ++p) {
        SyntheticEditOptions sopt;
        sopt.num_edits = edits_for(g);
        sopt.num_labels = dataset.num_labels;
        sopt.allow_relabel = dataset.num_labels > 1;
        GedPair pair = SyntheticEditPair(g, sopt, &rng);
        if (opt.exactify_small)
          ExactifyPair(&pair, opt.exact_max_nodes, opt.exact_budget);
        group.pairs.push_back(std::move(pair));
      }
      groups.push_back(std::move(group));
    }
    return groups;
  };
  set.test = make_groups(test_idx, opt.num_test_queries);
  set.validation = make_groups(val_idx, std::max(1, opt.num_test_queries / 2));
  return set;
}

GedPair MakeExactPair(const Graph& a, const Graph& b, long budget) {
  GedPair pair;
  pair.g1 = a.NumNodes() <= b.NumNodes() ? a : b;
  pair.g2 = a.NumNodes() <= b.NumNodes() ? b : a;
  HeuristicResult ub = ClassicGed(pair.g1, pair.g2);
  BnbOptions opt;
  opt.max_visits = budget;
  opt.initial_upper_bound = ub.ged;
  GedSearchResult res = BranchAndBoundGed(pair.g1, pair.g2, opt);
  // An empty matching means the search found nothing under the seed.
  if (!res.matching.empty()) {
    pair.ged = res.ged;
    pair.gt_matching = res.matching;
  } else {
    pair.ged = ub.ged;
    pair.gt_matching = ub.matching;
  }
  pair.exact = res.exact;
  pair.gt_path = EditPathFromMatching(pair.g1, pair.g2, pair.gt_matching);
  OTGED_CHECK(static_cast<int>(pair.gt_path.size()) == pair.ged);
  return pair;
}

PairSet MakeArbitraryPairSet(const Dataset& dataset,
                             const ArbitraryPairOptions& opt) {
  Rng rng(opt.seed);
  PairSet set;
  const int n_graphs = static_cast<int>(dataset.graphs.size());
  OTGED_CHECK(n_graphs >= 4);

  // 60/20/20 split, as in MakePairSet.
  std::vector<int> idx(n_graphs);
  for (int i = 0; i < n_graphs; ++i) idx[i] = i;
  rng.Shuffle(&idx);
  const int n_train = std::max(2, n_graphs * 6 / 10);
  const int n_test = std::max(1, n_graphs * 2 / 10);
  std::vector<int> train_idx(idx.begin(), idx.begin() + n_train);
  std::vector<int> test_idx(idx.begin() + n_train,
                            idx.begin() + std::min(n_graphs, n_train + n_test));
  std::vector<int> val_idx(idx.begin() + std::min(n_graphs, n_train + n_test),
                           idx.end());
  if (val_idx.empty()) val_idx = test_idx;

  auto pick = [&](const std::vector<int>& pool) {
    return dataset.graphs[pool[rng.UniformInt(
        0, static_cast<int>(pool.size()) - 1)]];
  };

  for (int i = 0; i < opt.num_train_pairs; ++i) {
    set.train.push_back(
        MakeExactPair(pick(train_idx), pick(train_idx), opt.exact_budget));
  }
  // Test / validation: a query graph paired with training-split graphs
  // (the paper's graph-similarity-search protocol).
  auto make_groups = [&](const std::vector<int>& pool, int n_queries) {
    std::vector<QueryGroup> groups;
    for (int q = 0; q < n_queries; ++q) {
      Graph query = pick(pool);
      QueryGroup group;
      for (int p = 0; p < opt.pairs_per_query; ++p) {
        group.pairs.push_back(
            MakeExactPair(query, pick(train_idx), opt.exact_budget));
      }
      groups.push_back(std::move(group));
    }
    return groups;
  };
  set.test = make_groups(test_idx, opt.num_test_queries);
  set.validation = make_groups(val_idx, std::max(1, opt.num_test_queries / 2));
  return set;
}

}  // namespace otged
