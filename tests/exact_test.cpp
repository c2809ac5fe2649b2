#include "exact/astar.hpp"
#include "exact/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "exact/search_common.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"

namespace otged {
namespace {

TEST(AstarTest, IdenticalGraphsGiveZero) {
  Rng rng(1);
  Graph g = AidsLikeGraph(&rng, 4, 8);
  auto res = AstarGed(g, g);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->ged, 0);
  EXPECT_TRUE(res->exact);
}

TEST(AstarTest, SingleRelabel) {
  Graph g1(3, 0);
  g1.AddEdge(0, 1);
  g1.AddEdge(1, 2);
  Graph g2 = g1;
  g2.set_label(2, 5);
  auto res = AstarGed(g1, g2);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->ged, 1);
}

TEST(AstarTest, NodeInsertionCountsEdgeToo) {
  Graph g1(2, 0);
  g1.AddEdge(0, 1);
  Graph g2(3, 0);
  g2.AddEdge(0, 1);
  g2.AddEdge(1, 2);
  auto res = AstarGed(g1, g2);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->ged, 2);  // insert node + insert edge
}

TEST(AstarTest, MatchingRealizesReportedGed) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto res = AstarGed(g1, g2);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(EditCostFromMatching(g1, g2, res->matching), res->ged);
  }
}

TEST(AstarTest, NeverExceedsSyntheticDelta) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = AidsLikeGraph(&rng, 4, 7);
    SyntheticEditOptions opt;
    opt.num_edits = rng.UniformInt(1, 4);
    opt.num_labels = 29;
    GedPair pair = SyntheticEditPair(g, opt, &rng);
    if (pair.g2.NumNodes() > 8) continue;
    auto res = AstarGed(pair.g1, pair.g2);
    ASSERT_TRUE(res.has_value());
    EXPECT_LE(res->ged, pair.ged);     // Δ is an upper bound
    EXPECT_GE(res->ged,
              LabelSetLowerBound(pair.g1, pair.g2));  // admissible LB
  }
}

TEST(AstarTest, RespectsExpansionBudget) {
  Rng rng(4);
  Graph g1 = ImdbLikeGraph(&rng, 9, 10);
  Graph g2 = ImdbLikeGraph(&rng, 10, 12);
  if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
  AstarOptions opt;
  opt.max_expansions = 3;
  auto res = AstarGed(g1, g2, opt);
  // With such a tiny budget the search gives up (unless trivially done).
  if (res.has_value()) {
    EXPECT_LE(res->expansions, 4);
  }
}

TEST(BeamTest, IsFeasibleUpperBound) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto exact = AstarGed(g1, g2);
    ASSERT_TRUE(exact.has_value());
    GedSearchResult beam = BeamGed(g1, g2, 5);
    EXPECT_GE(beam.ged, exact->ged);
    EXPECT_EQ(EditCostFromMatching(g1, g2, beam.matching), beam.ged);
  }
}

TEST(BeamTest, HugeBeamIsExhaustiveAndExact) {
  // Beam quality is not monotone in the width (a wider beam can displace
  // good states with optimistic dead-ends), but an exhaustive beam must
  // recover the exact GED.
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 5);
    Graph g2 = AidsLikeGraph(&rng, 5, 7);
    auto exact = AstarGed(g1, g2);
    ASSERT_TRUE(exact.has_value());
    GedSearchResult beam = BeamGed(g1, g2, 1 << 20);
    EXPECT_TRUE(beam.exact);
    EXPECT_EQ(beam.ged, exact->ged);
  }
}

TEST(BnbTest, AgreesWithAstar) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value());
    GedSearchResult bnb = BranchAndBoundGed(g1, g2);
    EXPECT_TRUE(bnb.exact);
    EXPECT_EQ(bnb.ged, astar->ged) << "trial " << trial;
  }
}

TEST(BnbTest, UpperBoundHintSpeedsSearch) {
  Rng rng(8);
  Graph g1 = LinuxLikeGraph(&rng, 7, 9);
  Graph g2 = LinuxLikeGraph(&rng, 9, 10);
  if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
  GedSearchResult base = BranchAndBoundGed(g1, g2);
  BnbOptions opt;
  opt.initial_upper_bound = base.ged;
  GedSearchResult hinted = BranchAndBoundGed(g1, g2, opt);
  EXPECT_EQ(hinted.ged, base.ged);
  EXPECT_LE(hinted.expansions, base.expansions);
}

TEST(BnbTest, BudgetBoundaryIsInclusive) {
  // The budget counts node expansions the same way AstarGed does, and it
  // is inclusive: a search whose tree takes exactly `max_visits`
  // expansions completes with exact == true. (The old driver burned one
  // budget unit per *visit* including the root, so a budget equal to the
  // tree size came up one short.)
  Rng rng(11);
  int boundary_cases = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 4, 7);
    Graph g2 = AidsLikeGraph(&rng, 7, 9);
    if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
    GedSearchResult full = BranchAndBoundGed(g1, g2);
    ASSERT_TRUE(full.exact);
    if (full.expansions < 2) continue;  // need room below the boundary
    ++boundary_cases;
    BnbOptions opt;
    opt.max_visits = full.expansions;  // tree is exactly this large
    GedSearchResult at = BranchAndBoundGed(g1, g2, opt);
    EXPECT_TRUE(at.exact) << "trial " << trial;
    EXPECT_EQ(at.ged, full.ged) << "trial " << trial;
    EXPECT_EQ(at.expansions, full.expansions) << "trial " << trial;
    opt.max_visits = full.expansions - 1;
    GedSearchResult under = BranchAndBoundGed(g1, g2, opt);
    EXPECT_FALSE(under.exact) << "trial " << trial;
    EXPECT_EQ(under.expansions, full.expansions - 1) << "trial " << trial;
    // Even a truncated search returns a feasible witness.
    EXPECT_EQ(EditCostFromMatching(g1, g2, under.matching), under.ged)
        << "trial " << trial;
  }
  EXPECT_GT(boundary_cases, 0);
}

TEST(ExactPropertyTest, GedIsSymmetricUnderPairSwap) {
  // GED(g1, g2) == GED(g2, g1); our API requires n1 <= n2 so we compare
  // same-size pairs directly.
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g1 = RandomConnectedGraph(6, 2, 4, &rng);
    Graph g2 = RandomConnectedGraph(6, 3, 4, &rng);
    auto a = AstarGed(g1, g2);
    auto b = AstarGed(g2, g1);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(a->ged, b->ged);
  }
}

TEST(ExactPropertyTest, PermutationInvariance) {
  // GED(g, permute(g)) == 0.
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = AidsLikeGraph(&rng, 4, 8);
    std::vector<int> perm(g.NumNodes());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    rng.Shuffle(&perm);
    auto res = AstarGed(g, PermuteGraph(g, perm));
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->ged, 0);
  }
}

/// One graph drawn from a family indexed in [0, 4): labeled ER,
/// unlabeled ER, sparse power-law, AIDS-like molecules.
Graph SampleGraph(int family, Rng* rng) {
  switch (family) {
    case 0:
      return RandomConnectedGraph(rng->UniformInt(3, 8),
                                  rng->UniformInt(0, 3), 5, rng);
    case 1:
      return RandomConnectedGraph(rng->UniformInt(3, 8),
                                  rng->UniformInt(0, 3), 1, rng);
    case 2:
      return PowerLawGraph(rng->UniformInt(4, 8), 1, rng);
    default:
      return AidsLikeGraph(rng, 4, 8);
  }
}

/// A pair ordered so n1 <= n2, as every exact search requires.
std::pair<Graph, Graph> SamplePair(int trial, Rng* rng) {
  Graph a = SampleGraph(trial % 4, rng);
  Graph b = SampleGraph((trial + 1 + trial / 4) % 4, rng);
  if (a.NumNodes() > b.NumNodes()) std::swap(a, b);
  return {std::move(a), std::move(b)};
}

/// Labels about half the edges of `g` with one of two non-zero labels.
void LabelSomeEdges(Graph* g, Rng* rng) {
  for (int u = 0; u < g->NumNodes(); ++u)
    for (int w : g->Neighbors(u))
      if (u < w && rng->UniformInt(0, 1) == 0)
        g->set_edge_label(u, w, 1 + rng->UniformInt(0, 1));
}

// The SoA do/undo scratch must agree with the recompute-from-scratch
// reference at every step: DeltaFast vs Delta, the incremental O(1)
// heuristic vs the O(n + m) recompute, Push/Pop as exact inverses, and
// RankChildren vs the children a full (delta, v) ranking keeps under
// several bounds. The sampled pairs include edge-labeled ones (the
// DeltaFast branch of RankChildren) and one with n2 == 64 (a full
// mask and the widest packed key).
TEST(SearchScratchTest, MatchesRecomputeReferenceOnRandomWalks) {
  Rng rng(777);
  std::vector<std::pair<Graph, Graph>> pairs;
  for (int trial = 0; trial < 200; ++trial)
    pairs.push_back(SamplePair(trial, &rng));
  for (int trial = 0; trial < 40; ++trial) {
    auto [g1, g2] = SamplePair(trial, &rng);
    if (trial % 3 != 2) LabelSomeEdges(&g1, &rng);
    if (trial % 3 != 1) LabelSomeEdges(&g2, &rng);
    pairs.emplace_back(std::move(g1), std::move(g2));
  }
  pairs.emplace_back(PowerLawGraph(61, 2, &rng), PowerLawGraph(64, 2, &rng));
  constexpr int kInf = std::numeric_limits<int>::max();
  int labeled_pairs = 0, max_n2 = 0;
  for (size_t trial = 0; trial < pairs.size(); ++trial) {
    const auto& [g1, g2] = pairs[trial];
    internal::Searcher searcher(g1, g2);
    const int n1 = searcher.ctx().n1, n2 = searcher.ctx().n2;
    if (searcher.ctx().edge_labeled) ++labeled_pairs;
    max_n2 = std::max(max_n2, n2);
    internal::SearchState s = searcher.Root();
    internal::DfsState d = searcher.MakeDfs();
    const internal::DfsState fresh = searcher.MakeDfs();
    EXPECT_EQ(searcher.HeuristicOf(d), s.h) << "trial " << trial;
    std::vector<int> kids;
    for (int depth = 0; depth < n1; ++depth) {
      std::vector<int> free_v;
      for (int v = 0; v < n2; ++v)
        if (!(s.used >> v & 1)) free_v.push_back(v);
      // Reference ranking: (delta, v) ascending, with each child's f.
      std::vector<std::pair<int, int>> ranked;
      std::vector<int> child_f(static_cast<size_t>(n2), 0);
      for (int v : free_v) {
        ASSERT_EQ(searcher.DeltaFast(d, v), searcher.Delta(s, v))
            << "trial " << trial << " depth " << depth << " v " << v;
        ranked.emplace_back(searcher.Delta(s, v), v);
        child_f[static_cast<size_t>(v)] = searcher.Child(s, v).f();
      }
      std::sort(ranked.begin(), ranked.end());
      const int mid = free_v[free_v.size() / 2];
      const int mid_f = child_f[static_cast<size_t>(mid)];
      for (const int bound : {0, s.f(), s.f() + 1, mid_f, mid_f + 2, kInf}) {
        std::vector<std::pair<int, int>> want;
        for (const auto& [delta, v] : ranked)
          if (child_f[static_cast<size_t>(v)] < bound)
            want.emplace_back(delta, v);
        searcher.RankChildren(d, bound, &kids);
        std::vector<std::pair<int, int>> got;
        for (const int key : kids)
          got.emplace_back(internal::Searcher::KeyDelta(key),
                           internal::Searcher::KeyNode(key));
        ASSERT_EQ(got, want) << "trial " << trial << " depth " << depth
                             << " bound " << bound;
      }
      const int v = free_v[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(free_v.size()) - 1))];
      searcher.Push(&d, v, searcher.DeltaFast(d, v));
      s = searcher.Child(s, v);
      ASSERT_EQ(d.g, s.g);
      ASSERT_EQ(d.used, s.used);
      ASSERT_EQ(searcher.HeuristicOf(d), s.h)
          << "trial " << trial << " depth " << depth;
    }
    if (n1 > 0) {
      // Leaves: the O(1) heuristic degenerates to the completion cost.
      ASSERT_EQ(searcher.HeuristicOf(d), searcher.CompletionCost(s));
      ASSERT_EQ(searcher.ExtractMatching(d), searcher.ExtractMatching(s));
    }
    for (int depth = 0; depth < n1; ++depth) searcher.Pop(&d);
    // Pop is an exact inverse of Push: the state returns to the root.
    EXPECT_EQ(d.g, 0);
    EXPECT_EQ(d.used, 0u);
    EXPECT_EQ(d.depth, 0);
    EXPECT_EQ(d.surplus, fresh.surplus);
    EXPECT_EQ(d.m1_rem, fresh.m1_rem);
    EXPECT_EQ(d.m2_rem, fresh.m2_rem);
    EXPECT_EQ(d.map1to2, fresh.map1to2);
    EXPECT_EQ(d.map2to1, fresh.map2to1);
    EXPECT_EQ(d.c1_rem, fresh.c1_rem);
    EXPECT_EQ(d.c2_rem, fresh.c2_rem);
  }
  // The edge-labeled branch and the 64-node edge really were exercised.
  EXPECT_GE(labeled_pairs, 30);
  EXPECT_EQ(max_n2, 64);
}

}  // namespace
}  // namespace otged
