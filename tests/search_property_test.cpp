/// \file search_property_test.cpp
/// \brief Property-based admissibility harness for the search layer.
///
/// The filter cascade's exactness guarantee rests on two families of
/// proofs: every lower bound is admissible (never exceeds the true GED)
/// and every upper bound is witnessed by a feasible edit path (never
/// undercuts it). Instead of hand-picked examples, this harness samples
/// ~200 random graph pairs across generator families — ER-style random
/// connected graphs and power-law graphs, labeled and unlabeled, plus
/// cross-family pairs — and checks the full sandwich
///     every LB  <=  exact GED  <=  every UB
/// on each, then checks that range and top-k serving match brute force
/// on a mixed corpus. Everything is seeded, so failures replay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "assignment/kbest.hpp"
#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "heuristics/lower_bounds.hpp"
#include "models/gedgw.hpp"
#include "search/query_engine.hpp"

namespace otged {
namespace {

/// Exact GED ground truth; fixture graphs are small enough that the
/// default branch-and-bound budget is never exhausted.
int ExactGed(const Graph& a, const Graph& b) {
  auto [g1, g2] = OrderBySize(a, b);
  BnbOptions opt;
  opt.initial_upper_bound = ClassicGed(*g1, *g2).ged;
  GedSearchResult res = BranchAndBoundGed(*g1, *g2, opt);
  EXPECT_TRUE(res.exact);
  return res.ged;
}

/// One graph drawn from a family indexed by `family` in [0, 4): labeled
/// ER, unlabeled ER, sparse power-law, denser power-law.
Graph SampleGraph(int family, Rng* rng) {
  switch (family) {
    case 0:
      return RandomConnectedGraph(rng->UniformInt(3, 7),
                                  rng->UniformInt(0, 3), 5, rng);
    case 1:
      return RandomConnectedGraph(rng->UniformInt(3, 7),
                                  rng->UniformInt(0, 3), 1, rng);
    case 2:
      return PowerLawGraph(rng->UniformInt(4, 8), 1, rng);
    default:
      return PowerLawGraph(rng->UniformInt(4, 7), 2, rng);
  }
}

/// 200 random pairs, cycling through same-family and cross-family
/// combinations: every lower bound of the cascade is admissible and
/// every upper bound is feasible.
TEST(SearchPropertyTest, BoundsSandwichExactGedOnRandomPairs) {
  Rng rng(20250729);
  for (int trial = 0; trial < 200; ++trial) {
    Graph a = SampleGraph(trial % 4, &rng);
    Graph b = SampleGraph((trial + trial / 4) % 4, &rng);
    const int exact = ExactGed(a, b);
    auto [g1, g2] = OrderBySize(a, b);

    // Tier-0 lower bound from invariants alone.
    const int inv_lb =
        InvariantLowerBound(ComputeInvariants(a), ComputeInvariants(b));
    EXPECT_LE(inv_lb, exact) << "invariant LB inadmissible at trial "
                             << trial;

    // Tier-1 BRANCH bipartite lower bound (ceil'ed as the cascade does).
    const int branch_lb =
        static_cast<int>(std::ceil(BranchLowerBound(*g1, *g2) - 1e-9));
    EXPECT_LE(branch_lb, exact) << "BRANCH LB inadmissible at trial "
                                << trial;

    // Tier-2 Classic heuristic upper bound.
    const int classic_ub = ClassicGed(*g1, *g2).ged;
    EXPECT_GE(classic_ub, exact) << "Classic UB infeasible at trial "
                                 << trial;

    // The paper's OT upper bound (GEDGW coupling -> k-best edit path);
    // the OT solve dominates the harness runtime, so sample every 4th
    // pair.
    if (trial % 4 == 0) {
      GedgwConfig gw_cfg;
      gw_cfg.cg_iters = 20;
      GedgwSolver gw(gw_cfg);
      Prediction pred = gw.Predict(*g1, *g2);
      GepResult gep = KBestGepSearch(*g1, *g2, pred.coupling, 8);
      EXPECT_GE(gep.ged, exact) << "OT UB infeasible at trial " << trial;
    }
  }
}

/// Range and top-k results over a mixed-family corpus equal brute force:
/// same ids, and exact distances wherever the engine claims exactness.
TEST(SearchPropertyTest, ServingMatchesBruteForceOnMixedCorpus) {
  Rng rng(424243);
  GraphStore store;
  for (int i = 0; i < 48; ++i) store.Insert(SampleGraph(i % 4, &rng));
  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);

  for (int q = 0; q < 5; ++q) {
    Graph query = SampleGraph(q % 4, &rng);
    std::vector<int> exact(store.Size());
    for (int id = 0; id < store.Size(); ++id)
      exact[id] = ExactGed(query, store.graph(id));

    for (int tau : {0, 1, 2, 3, 5}) {
      RangeResult res = engine.Range(query, tau);
      std::vector<int> expected;
      for (int id = 0; id < store.Size(); ++id)
        if (exact[id] <= tau) expected.push_back(id);
      std::vector<int> got;
      for (const RangeHit& h : res.hits) got.push_back(h.id);
      EXPECT_EQ(got, expected) << "q=" << q << " tau=" << tau;
      for (const RangeHit& h : res.hits) {
        EXPECT_GE(h.ged, exact[h.id]);
        EXPECT_LE(h.ged, tau);
        if (h.exact_distance) {
          EXPECT_EQ(h.ged, exact[h.id]);
        }
      }
    }

    for (int k : {1, 4, 9}) {
      TopKResult res = engine.TopK(query, k);
      std::vector<TopKHit> expected;
      for (int id = 0; id < store.Size(); ++id)
        expected.push_back({id, exact[id]});
      std::sort(expected.begin(), expected.end(),
                [](const TopKHit& a, const TopKHit& b) {
                  return a.ged != b.ged ? a.ged < b.ged : a.id < b.id;
                });
      expected.resize(k);
      ASSERT_EQ(res.hits.size(), expected.size()) << "q=" << q << " k=" << k;
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(res.hits[i].id, expected[i].id) << "q=" << q << " k=" << k;
        EXPECT_EQ(res.hits[i].ged, expected[i].ged)
            << "q=" << q << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace otged
