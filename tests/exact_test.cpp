#include "exact/astar.hpp"
#include "exact/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "exact/search_common.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "search/filter_cascade.hpp"
#include "telemetry/metrics.hpp"

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

/// Small pairs A* settles quickly, cycling through four families:
/// unrelated power-law graphs, unlabeled edit pairs of LINUX-like and of
/// power-law graphs, and edit pairs of AIDS-like molecules with three
/// edge labels (edge relabels included). Ordered so n1 <= n2.
std::pair<Graph, Graph> VerifyPair(int trial, Rng* rng) {
  Graph a, b;
  if (trial % 4 == 0) {
    a = PowerLawGraph(rng->UniformInt(5, 9), rng->UniformInt(1, 2), rng);
    b = PowerLawGraph(rng->UniformInt(5, 9), rng->UniformInt(1, 2), rng);
  } else {
    SyntheticEditOptions opt;
    opt.num_edits = rng->UniformInt(1, 5);
    Graph base;
    if (trial % 4 == 1) {
      base = LinuxLikeGraph(rng, 5, 9);
      opt.allow_relabel = false;
    } else if (trial % 4 == 2) {
      base = PowerLawGraph(rng->UniformInt(5, 9), 2, rng);
      opt.allow_relabel = false;
    } else {
      base = AidsLikeGraph(rng, 5, 9);
      AssignRandomEdgeLabels(&base, 3, rng);
      opt.num_labels = 29;
      opt.num_edge_labels = 3;
    }
    GedPair p = SyntheticEditPair(base, opt, rng);
    a = std::move(p.g1);
    b = std::move(p.g2);
  }
  if (a.NumNodes() > b.NumNodes()) std::swap(a, b);
  return {std::move(a), std::move(b)};
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
  // The anchor-aware bound only prunes what cannot beat the incumbent:
  // seeded or not, the search still proves A*'s distance on 400 more
  // pairs, and its matching realizes it.
  int labeled = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto [g1, g2] = VerifyPair(trial, &rng);
    if (g1.HasEdgeLabels() || g2.HasEdgeLabels()) ++labeled;
    const auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value()) << "trial " << trial;
    BnbOptions opt;
    const GedSearchResult plain = BranchAndBoundGed(g1, g2, opt);
    opt.initial_upper_bound = ClassicGed(g1, g2).ged;
    const GedSearchResult seeded = BranchAndBoundGed(g1, g2, opt);
    for (const GedSearchResult& r : {plain, seeded}) {
      EXPECT_TRUE(r.exact) << "trial " << trial;
      EXPECT_EQ(r.ged, astar->ged) << "trial " << trial;
      EXPECT_EQ(EditCostFromMatching(g1, g2, r.matching), r.ged)
          << "trial " << trial;
    }
  }
  EXPECT_GE(labeled, 90);
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

TEST(BnbTest, SeedBelowGreedyCostIsNeverExceeded) {
  // A starved search that finds nothing under its seed hands the seed
  // back, never the costlier identity matching it starts from — a top-k
  // probe refined this way must not loosen its bound.
  Rng rng(12);
  const FilterCascade cascade;
  int seeded_cases = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Graph g1 = PowerLawGraph(rng.UniformInt(10, 14), 2, &rng);
    Graph g2 = PowerLawGraph(rng.UniformInt(14, 16), 2, &rng);
    NodeMatching identity(static_cast<size_t>(g1.NumNodes()));
    std::iota(identity.begin(), identity.end(), 0);
    const int seed = ClassicGed(g1, g2).ged;
    if (seed >= EditCostFromMatching(g1, g2, identity)) continue;
    ++seeded_cases;
    BnbOptions opt;
    opt.max_visits = 1;
    opt.initial_upper_bound = seed;
    const GedSearchResult direct = BranchAndBoundGed(g1, g2, opt);
    const GedSearchResult routed = cascade.ExactSearch(g1, g2, 1, seed);
    for (const GedSearchResult& r : {direct, routed}) {
      EXPECT_FALSE(r.exact) << "trial " << trial;
      EXPECT_FALSE(r.above_threshold) << "trial " << trial;
      EXPECT_LE(r.ged, seed) << "trial " << trial;
      if (!r.matching.empty()) {
        EXPECT_EQ(EditCostFromMatching(g1, g2, r.matching), r.ged);
      }
    }
  }
  EXPECT_GT(seeded_cases, 0);
}

TEST(BnbTest, ThresholdContractAgainstAstar) {
  // With a threshold, a completed search either proves GED <= tau with
  // the exact distance and the very matching the unthresholded search
  // returns, or proves GED > tau without claiming a distance. A budget
  // of one expansion settles neither.
  Rng rng(14);
  int within = 0, above = 0, starved = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto [g1, g2] = VerifyPair(trial, &rng);
    const auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value()) << "trial " << trial;
    const int ged = astar->ged;
    BnbOptions opt;
    opt.initial_upper_bound = ClassicGed(g1, g2).ged;
    const GedSearchResult full = BranchAndBoundGed(g1, g2, opt);
    ASSERT_TRUE(full.exact);
    for (int tau = std::max(0, ged - 2); tau <= ged + 1; ++tau) {
      opt.threshold = tau;
      opt.max_visits = BnbOptions{}.max_visits;
      const GedSearchResult r = BranchAndBoundGed(g1, g2, opt);
      if (ged <= tau) {
        ++within;
        EXPECT_TRUE(r.exact) << "trial " << trial << " tau " << tau;
        EXPECT_FALSE(r.above_threshold);
        EXPECT_EQ(r.ged, ged) << "trial " << trial << " tau " << tau;
        EXPECT_EQ(r.matching, full.matching)
            << "trial " << trial << " tau " << tau;
      } else {
        ++above;
        EXPECT_TRUE(r.above_threshold) << "trial " << trial << " tau " << tau;
        EXPECT_FALSE(r.exact) << "trial " << trial << " tau " << tau;
        EXPECT_GT(r.ged, tau);
        EXPECT_LE(r.ged, opt.initial_upper_bound);
      }
      if (r.expansions > 1) {
        ++starved;
        opt.max_visits = 1;
        const GedSearchResult s = BranchAndBoundGed(g1, g2, opt);
        EXPECT_FALSE(s.exact) << "trial " << trial << " tau " << tau;
        EXPECT_FALSE(s.above_threshold) << "trial " << trial << " tau " << tau;
        EXPECT_LE(s.ged, opt.initial_upper_bound);
      }
    }
  }
  EXPECT_GT(within, 100);
  EXPECT_GT(above, 100);
  EXPECT_GT(starved, 50);
}

TEST(ExactTierTest, ThresholdDismissalIsSettledAndCounted) {
  // Range reads threshold tier 4 at tau. A pair it proves above tau is
  // dismissed at kExact with no distance, counted as decided (not as
  // incomplete), and the global counters agree with the returned stats.
  const FilterCascade cascade;
#if OTGED_TELEMETRY_COMPILED
  telemetry::SetEnabled(true);
  const telemetry::MetricsSnapshot before = telemetry::Registry().Snapshot();
#endif
  Rng rng(15);
  CascadeStats total;
  int dismissed = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const auto [g1, g2] = VerifyPair(trial, &rng);
    const auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value());
    const GraphInvariants i1 = ComputeInvariants(g1);
    const GraphInvariants i2 = ComputeInvariants(g2);
    for (int tau = 1; tau <= 4; ++tau) {
      CascadeStats st;
      CascadeProbe probe;
      const CascadeVerdict v = cascade.BoundedDistance(
          g1, i1, g2, i2, tau, /*need_distance=*/false, &st, &probe);
      EXPECT_EQ(v.within, astar->ged <= tau)
          << "trial " << trial << " tau " << tau;
      EXPECT_EQ(st.SettledTotal(), st.candidates);
      EXPECT_EQ(st.exact_incomplete, 0);
      if (v.tier == CascadeTier::kExact && !v.within) {
        ++dismissed;
        EXPECT_EQ(v.ged, -1);
        EXPECT_FALSE(v.exact_distance);
        EXPECT_EQ(st.decided_exact, 1);
        EXPECT_EQ(st.exact_calls, 1);
        EXPECT_EQ(probe.lb, tau + 1);
        EXPECT_GT(probe.ub, tau);
      }
      total.Merge(st);
    }
  }
  EXPECT_GT(dismissed, 20);
  EXPECT_EQ(total.SettledTotal(), total.candidates);
#if OTGED_TELEMETRY_COMPILED
  const telemetry::MetricsSnapshot after = telemetry::Registry().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("otged_cascade_candidates_total"), total.candidates);
  EXPECT_EQ(delta("otged_cascade_decided_total{tier=\"exact\"}"),
            total.decided_exact);
  EXPECT_EQ(delta("otged_cascade_exact_calls_total"), total.exact_calls);
  EXPECT_EQ(delta("otged_cascade_exact_incomplete_total"), 0);
#endif
}

TEST(ExactTierTest, RangeHitsAreWitnessedOrExact) {
  // A range hit carries an unproven distance only when tier 2's feasible
  // path witnessed it (or the exact tier could not finish). Every other
  // hit past tier 0 comes from the exact tier with A*'s distance.
  const FilterCascade cascade;
  Rng rng(17);
  int checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    SyntheticEditOptions opt;
    opt.num_edits = rng.UniformInt(2, 6);
    Graph base;
    if (trial % 2 == 0) {
      base = PowerLawGraph(rng.UniformInt(6, 10), 2, &rng);
      opt.allow_relabel = false;
    } else {
      base = AidsLikeGraph(&rng, 6, 10);
      opt.num_labels = 29;
    }
    GedPair p = SyntheticEditPair(base, opt, &rng);
    if (p.g1.NumNodes() > p.g2.NumNodes()) std::swap(p.g1, p.g2);
    const auto astar = AstarGed(p.g1, p.g2);
    ASSERT_TRUE(astar.has_value());
    const GraphInvariants i1 = ComputeInvariants(p.g1);
    const GraphInvariants i2 = ComputeInvariants(p.g2);
    for (int tau = std::max(0, astar->ged - 1); tau <= astar->ged + 1;
         ++tau) {
      CascadeStats st;
      const CascadeVerdict v = cascade.BoundedDistance(
          p.g1, i1, p.g2, i2, tau, /*need_distance=*/false, &st);
      EXPECT_EQ(v.within, astar->ged <= tau)
          << "trial " << trial << " tau " << tau;
      EXPECT_EQ(st.exact_incomplete, 0);
      if (!v.within || v.tier == CascadeTier::kInvariant ||
          v.tier == CascadeTier::kHeuristic)
        continue;
      ++checked;
      EXPECT_EQ(v.tier, CascadeTier::kExact)
          << "trial " << trial << " tau " << tau;
      EXPECT_TRUE(v.exact_distance) << "trial " << trial << " tau " << tau;
      EXPECT_EQ(v.ged, astar->ged) << "trial " << trial << " tau " << tau;
    }
  }
  EXPECT_GT(checked, 40);
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

/// Edges of `g` with exactly one endpoint in `mapped` (a node bitmask).
int CutEdges(const Graph& g, uint64_t mapped) {
  int cut = 0;
  for (int u = 0; u < g.NumNodes(); ++u)
    for (int w : g.Neighbors(u))
      if (u < w && (mapped >> u & 1) != (mapped >> w & 1)) ++cut;
  return cut;
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
// heuristic vs the O(n + m) recompute, the cut-edge counters vs a
// recount, Push/Pop as exact inverses (cut counters included), and
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
      // A(u) of every unmapped G1 node: images of its mapped neighbours.
      for (int i = depth; i < n1; ++i) {
        const int u = searcher.ctx().order[static_cast<size_t>(i)];
        uint64_t want = 0;
        for (int w : g1.Neighbors(u))
          if (s.map1to2[w] >= 0) want |= 1ull << s.map1to2[w];
        ASSERT_EQ(d.anchor[static_cast<size_t>(u)], want)
            << "trial " << trial << " depth " << depth << " u " << u;
      }
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
      ASSERT_EQ(d.cut1,
                CutEdges(g1, searcher.ctx().order_prefix[d.depth]))
          << "trial " << trial << " depth " << depth;
      ASSERT_EQ(d.cut2, CutEdges(g2, d.used))
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
    EXPECT_EQ(d.cut1, 0);
    EXPECT_EQ(d.cut2, 0);
    EXPECT_EQ(d.cut1, fresh.cut1);
    EXPECT_EQ(d.cut2, fresh.cut2);
    EXPECT_EQ(d.map1to2, fresh.map1to2);
    EXPECT_EQ(d.map2to1, fresh.map2to1);
    EXPECT_EQ(d.c1_rem, fresh.c1_rem);
    EXPECT_EQ(d.c2_rem, fresh.c2_rem);
    EXPECT_EQ(d.anchor, fresh.anchor);
  }
  // The edge-labeled branch and the 64-node edge really were exercised.
  EXPECT_GE(labeled_pairs, 30);
  EXPECT_EQ(max_n2, 64);
}

/// Cheapest total cost of any completion of `s`, by enumeration.
int BestCompletion(const internal::Searcher& searcher,
                   const internal::SearchState& s) {
  if (s.depth == searcher.ctx().n1) return s.g + searcher.CompletionCost(s);
  int best = std::numeric_limits<int>::max();
  for (int v = 0; v < searcher.ctx().n2; ++v)
    if (!(s.used >> v & 1))
      best = std::min(best, BestCompletion(searcher, searcher.Child(s, v)));
  return best;
}

// The anchor-aware heuristic never overestimates the cheapest completion
// (checked by enumeration on small pairs, edge-labeled ones included),
// and its early exit at `cap` agrees with the full sum below the cap.
TEST(SearchScratchTest, AnchorHeuristicIsAdmissible) {
  Rng rng(778);
  constexpr int kInf = std::numeric_limits<int>::max();
  int checked = 0, labeled = 0, tighter = 0;
  for (int trial = 0; checked < 150; ++trial) {
    auto [g1, g2] = SamplePair(trial, &rng);
    if (g2.NumNodes() > 6) continue;
    if (trial % 2 == 0) LabelSomeEdges(&g2, &rng);
    ++checked;
    internal::Searcher searcher(g1, g2);
    if (searcher.ctx().edge_labeled) ++labeled;
    internal::SearchState s = searcher.Root();
    internal::DfsState d = searcher.MakeDfs();
    for (int depth = 0; depth < searcher.ctx().n1; ++depth) {
      const int h = searcher.AnchorHeuristic(d, kInf);
      ASSERT_LE(d.g + h, BestCompletion(searcher, s))
          << "trial " << trial << " depth " << depth;
      if (h > searcher.HeuristicOf(d)) ++tighter;
      for (const int cap : {0, h - 1, h, h + 1})
        ASSERT_EQ(std::min(searcher.AnchorHeuristic(d, cap), cap),
                  std::min(h, cap));
      std::vector<int> free_v;
      for (int v = 0; v < searcher.ctx().n2; ++v)
        if (!(s.used >> v & 1)) free_v.push_back(v);
      const int v = free_v[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(free_v.size()) - 1))];
      searcher.Push(&d, v, searcher.DeltaFast(d, v));
      s = searcher.Child(s, v);
    }
  }
  EXPECT_GE(labeled, 50);
  EXPECT_GT(tighter, 0);  // the bound does prune beyond the O(1) one
}

/// The anchor-aware bound as it was computed before the cut-edge
/// counters: anchored-edge counts recounted from A(u) and B(w), and the
/// min table always built. O(n1 * n2) popcounts per call.
int QuadraticAnchorHeuristic(const internal::SearchContext& ctx,
                             const internal::DfsState& s, int cap) {
  const uint64_t free1 = ctx.all1 & ~ctx.order_prefix[s.depth];
  std::vector<uint64_t> b;  // the non-empty B(w) of unmapped w
  int anchored1 = 0, anchored2 = 0;
  bool empty_b = false;  // some unmapped w has B(w) == 0
  for (uint64_t m = ctx.all2 & ~s.used; m != 0; m &= m - 1) {
    const uint64_t bw = ctx.adj2_mask[std::countr_zero(m)] & s.used;
    anchored2 += std::popcount(bw);
    if (bw == 0) {
      empty_b = true;
    } else {
      b.push_back(bw);
    }
  }
  for (uint64_t m = free1; m != 0; m &= m - 1)
    anchored1 += std::popcount(s.anchor[std::countr_zero(m)]);
  int h = s.surplus + (ctx.n2 - ctx.n1) +
          std::abs((s.m1_rem - anchored1) - (s.m2_rem - anchored2));
  for (uint64_t m = free1; m != 0 && h < cap; m &= m - 1) {
    const uint64_t a = s.anchor[std::countr_zero(m)];
    int best = empty_b ? std::popcount(a) : kMaxExactNodes;
    for (const uint64_t bw : b) best = std::min(best, std::popcount(a ^ bw));
    h += best;
  }
  return h;
}

// The O(1) first term (from the cut-edge counters) and its early return
// leave AnchorHeuristic's value where the O(n1 * n2) recount had it, at
// every cap around the true value, on random walks over pairs of up to
// 32 nodes, unlabeled and edge-labeled.
TEST(SearchScratchTest, AnchorHeuristicMatchesQuadraticReference) {
  Rng rng(779);
  constexpr int kInf = std::numeric_limits<int>::max();
  int states = 0, labeled = 0, table = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int na = rng.UniformInt(4, 32), nb = rng.UniformInt(4, 32);
    Graph g1 = trial % 2 == 0
                   ? PowerLawGraph(na, 1 + trial % 3, &rng)
                   : RandomConnectedGraph(na, rng.UniformInt(0, na), 3, &rng);
    Graph g2 = trial % 3 == 0
                   ? PowerLawGraph(nb, 1 + trial % 2, &rng)
                   : RandomConnectedGraph(nb, rng.UniformInt(0, nb), 3, &rng);
    if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
    if (trial % 4 >= 2) {
      LabelSomeEdges(&g1, &rng);
      LabelSomeEdges(&g2, &rng);
    }
    internal::Searcher searcher(g1, g2);
    const internal::SearchContext& ctx = searcher.ctx();
    if (ctx.edge_labeled) ++labeled;
    internal::DfsState d = searcher.MakeDfs();
    for (int depth = 0; depth < ctx.n1; ++depth) {
      const int h = QuadraticAnchorHeuristic(ctx, d, kInf);
      ASSERT_EQ(searcher.AnchorHeuristic(d, kInf), h)
          << "trial " << trial << " depth " << depth;
      for (const int cap : {0, h - 1, h, h + 1}) {
        ASSERT_EQ(std::min(searcher.AnchorHeuristic(d, cap), cap),
                  std::min(h, cap))
            << "trial " << trial << " depth " << depth << " cap " << cap;
        ASSERT_EQ(searcher.AnchorHeuristic(d, cap),
                  QuadraticAnchorHeuristic(ctx, d, cap))
            << "trial " << trial << " depth " << depth << " cap " << cap;
      }
      if (h > d.surplus + (ctx.n2 - ctx.n1) +
                  std::abs((d.m1_rem - d.cut1) - (d.m2_rem - d.cut2)))
        ++table;  // the min table added to the O(1) term
      ++states;
      uint64_t free2 = ctx.all2 & ~d.used;
      for (int skip = rng.UniformInt(0, std::popcount(free2) - 1); skip > 0;
           --skip)
        free2 &= free2 - 1;
      const int v = std::countr_zero(free2);
      searcher.Push(&d, v, searcher.DeltaFast(d, v));
    }
  }
  EXPECT_GE(states, 500);
  EXPECT_GE(labeled, 40);
  EXPECT_GT(table, 0);
}

}  // namespace
}  // namespace otged
