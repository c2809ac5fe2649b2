/// \file search_exact_budget_test.cpp
/// \brief Exact-tier budget exhaustion semantics: a starved tier-4 budget
/// must keep candidates conservatively (no false dismissals, ever), must
/// never claim an unproven distance as exact, and must be visible in both
/// CascadeStats::exact_incomplete and the global
/// otged_cascade_exact_incomplete_total counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generator.hpp"
#include "search/query_engine.hpp"
#include "telemetry/metrics.hpp"

namespace otged {
namespace {

/// A pair that usually needs the exact tier: a near-miss whose invariant
/// and heuristic bounds disagree around small taus.
GedPair HardPair(Rng* rng) {
  Graph base = AidsLikeGraph(rng, 6, 9);
  SyntheticEditOptions opt;
  opt.num_edits = rng->UniformInt(2, 4);
  opt.num_labels = 29;
  return SyntheticEditPair(base, opt, rng);
}

TEST(ExactBudgetTest, StarvedVerdictsAreConservativeNeverExact) {
  CascadeOptions starved_opt;
  starved_opt.exact_budget = 1;
  FilterCascade starved(starved_opt);
  FilterCascade full;

  Rng rng(31);
  int starved_runs = 0, full_exact = 0, full_dismissed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    GedPair pair = HardPair(&rng);
    const GraphInvariants qi = ComputeInvariants(pair.g1);
    const GraphInvariants gi = ComputeInvariants(pair.g2);
    for (int tau = 2; tau <= 3; ++tau) {
      CascadeStats ss, fs;
      const CascadeVerdict sv = starved.BoundedDistance(
          pair.g1, qi, pair.g2, gi, tau, /*need_distance=*/false, &ss);
      const CascadeVerdict fv = full.BoundedDistance(
          pair.g1, qi, pair.g2, gi, tau, /*need_distance=*/false, &fs);
      ASSERT_EQ(fs.exact_incomplete, 0) << "full budget starved?!";
      EXPECT_EQ(ss.SettledTotal(), ss.candidates);
      EXPECT_LE(sv.lb, fv.lb) << "trial " << trial;
      if (ss.exact_incomplete > 0) {
        ++starved_runs;
        // The starved run reached tier 4, so its bounds left tau open;
        // the unlimited cascade escalates just as far and must settle
        // the pair with a proof: an exact distance within tau, or an
        // exhausted tree proving GED > tau.
        EXPECT_EQ(ss.exact_incomplete, 1);
        EXPECT_EQ(ss.exact_calls, 1);
        ASSERT_EQ(fv.tier, CascadeTier::kExact) << "trial " << trial;
        if (fv.exact_distance) {
          ++full_exact;
          EXPECT_TRUE(fv.within);
          EXPECT_LE(fv.ged, tau);
          EXPECT_EQ(fv.lb, fv.ged);
        } else {
          ++full_dismissed;
          EXPECT_FALSE(fv.within) << "trial " << trial;
          EXPECT_EQ(fv.lb, tau + 1) << "trial " << trial;
        }
        // The three guarantees of an exhausted exact tier: the candidate
        // is kept, the distance is flagged unproven, and the reported
        // value is still a feasible upper bound on the true GED, so it is
        // at least the full run's exact distance or proven lower bound.
        EXPECT_TRUE(sv.within) << "trial " << trial << " tau " << tau;
        EXPECT_FALSE(sv.exact_distance) << "trial " << trial;
        EXPECT_GE(sv.ged, fv.exact_distance ? fv.ged : fv.lb)
            << "trial " << trial;
        EXPECT_LE(sv.lb, sv.ged) << "trial " << trial;
      } else {
        // Not starved means decided, and every decision is proof-backed:
        // the starved cascade must agree with the unlimited one.
        EXPECT_EQ(sv.within, fv.within) << "trial " << trial;
        if (sv.exact_distance) {
          ASSERT_TRUE(fv.exact_distance);
          EXPECT_EQ(sv.ged, fv.ged);
        }
      }
    }
  }
  EXPECT_GT(starved_runs, 0) << "fixture never reached a starved tier 4";
  EXPECT_GT(full_exact, 0) << "no starved pair has a proven distance";
  EXPECT_GT(full_dismissed, 0) << "no starved pair has a proven dismissal";
}

TEST(ExactBudgetTest, StarvedEngineKeepsEveryTrueHitAndReconciles) {
  // Unlabeled graphs keep the invariant/label lower bounds weak and the
  // heuristic upper bound loose, so bound gaps actually reach tier 4.
  Rng rng(91);
  Graph query = LinuxLikeGraph(&rng, 8, 10);
  std::vector<Graph> corpus;
  for (int i = 0; i < 10; ++i) {
    SyntheticEditOptions eopt;
    eopt.num_edits = rng.UniformInt(1, 4);
    eopt.num_labels = 1;
    corpus.push_back(SyntheticEditPair(query, eopt, &rng).g2);
  }
  for (int i = 0; i < 30; ++i) corpus.push_back(LinuxLikeGraph(&rng, 6, 10));
  GraphStore store;
  store.AddAll(corpus);

  EngineOptions truth_opt;
  truth_opt.num_threads = 2;
  QueryEngine truth_engine(&store, truth_opt);
  EngineOptions starved_opt = truth_opt;
  starved_opt.cascade.exact_budget = 1;
  QueryEngine starved_engine(&store, starved_opt);

  constexpr int kTau = 4;
  const RangeResult truth = truth_engine.Range(query, kTau);
  ASSERT_EQ(truth.stats.cascade.exact_incomplete, 0);

#if OTGED_TELEMETRY_COMPILED
  telemetry::SetEnabled(true);
  const telemetry::MetricsSnapshot before =
      telemetry::Registry().Snapshot();
#endif
  const RangeResult got = starved_engine.Range(query, kTau);
  const TopKResult topk = starved_engine.TopK(query, 5);
  CascadeStats total;
  total.Merge(got.stats.cascade);
  total.Merge(topk.stats.cascade);
#if OTGED_TELEMETRY_COMPILED
  const telemetry::MetricsSnapshot after = telemetry::Registry().Snapshot();
#endif

  // A starved exact tier must actually have happened for this test to
  // mean anything.
  EXPECT_GT(total.exact_incomplete, 0);
  EXPECT_GE(total.exact_calls, total.exact_incomplete);

  // No false dismissals: every proven hit survives starvation.
  std::set<int> starved_ids;
  for (const RangeHit& h : got.hits) starved_ids.insert(h.id);
  for (const RangeHit& h : truth.hits)
    EXPECT_TRUE(starved_ids.count(h.id)) << "dropped true hit id " << h.id;
  // Conservative keeps are flagged unproven, never exact: any starved
  // hit claiming an exact distance must be a true hit.
  std::set<int> truth_ids;
  for (const RangeHit& h : truth.hits) truth_ids.insert(h.id);
  for (const RangeHit& h : got.hits) {
    if (h.exact_distance) {
      EXPECT_TRUE(truth_ids.count(h.id)) << "false exact hit id " << h.id;
    }
  }
  // Top-k under starvation: ordered by (lb, id), each hit's distance
  // inside its proven interval [lb, ged], exact hits with lb == ged.
  for (const TopKHit& h : topk.hits) {
    EXPECT_LE(h.lb, h.ged) << "id " << h.id;
    if (h.exact_distance) {
      EXPECT_EQ(h.lb, h.ged) << "id " << h.id;
    }
  }
  for (size_t i = 1; i < topk.hits.size(); ++i) {
    const TopKHit& a = topk.hits[i - 1];
    const TopKHit& b = topk.hits[i];
    EXPECT_TRUE(a.lb < b.lb || (a.lb == b.lb && a.id < b.id));
  }

#if OTGED_TELEMETRY_COMPILED
  // The same starvation counted two independent ways.
  EXPECT_EQ(after.CounterValue("otged_cascade_exact_incomplete_total") -
                before.CounterValue("otged_cascade_exact_incomplete_total"),
            total.exact_incomplete);
  EXPECT_EQ(after.CounterValue("otged_cascade_exact_calls_total") -
                before.CounterValue("otged_cascade_exact_calls_total"),
            total.exact_calls);
#endif
}

// A pair with more nodes than the exact solvers accept (kMaxExactNodes)
// must not reach the solver: Range and TopK escalate it to tier 4, which
// answers with the best upper bound, unproven, counted as incomplete.
TEST(ExactBudgetTest, OversizedPairIsKeptUnprovenNotSearched) {
  Rng rng(65);
  const Graph big = PowerLawGraph(kMaxExactNodes + 1, 2, &rng);
  SyntheticEditOptions eopt;
  eopt.num_edits = 3;
  eopt.num_labels = 1;
  eopt.allow_relabel = false;
  const Graph query = SyntheticEditPair(big, eopt, &rng).g2;
  ASSERT_GT(query.NumNodes(), kMaxExactNodes);
  GraphStore store;
  store.AddAll({big, PowerLawGraph(8, 2, &rng), PowerLawGraph(9, 2, &rng)});

  EngineOptions opt;
  opt.num_threads = 2;
  opt.use_bound_cache = false;
  QueryEngine engine(&store, opt);

#if OTGED_TELEMETRY_COMPILED
  telemetry::SetEnabled(true);
  const telemetry::MetricsSnapshot before = telemetry::Registry().Snapshot();
#endif
  // The smallest tau whose range read escalates the big pair.
  RangeResult range;
  for (int tau = 0; tau <= 12; ++tau) {
    range = engine.Range(query, tau);
    if (range.stats.cascade.exact_calls > 0) break;
  }
  const TopKResult topk = engine.TopK(query, 1);
#if OTGED_TELEMETRY_COMPILED
  const telemetry::MetricsSnapshot after = telemetry::Registry().Snapshot();
#endif
  ASSERT_GT(range.stats.cascade.exact_calls, 0) << "never escalated";
  ASSERT_GT(topk.stats.cascade.exact_calls, 0) << "never escalated";

  // Kept conservatively and flagged, with a feasible bound as distance.
  const int big_id = 0;
  ASSERT_EQ(range.hits.size(), 1u);
  EXPECT_EQ(range.hits[0].id, big_id);
  EXPECT_FALSE(range.hits[0].exact_distance);
  EXPECT_GE(range.hits[0].ged, 0);
  // Every stored graph pairs with the query above the limit, so the
  // top-1 distance is some pair's unproven upper bound.
  ASSERT_EQ(topk.hits.size(), 1u);
  EXPECT_FALSE(topk.hits[0].exact_distance);
  EXPECT_GE(topk.hits[0].ged, 0);

  // Every escalation of the big pair counts as incomplete.
  CascadeStats total;
  total.Merge(range.stats.cascade);
  total.Merge(topk.stats.cascade);
  EXPECT_EQ(total.exact_incomplete, total.exact_calls);
  EXPECT_EQ(total.SettledTotal(), total.candidates);
#if OTGED_TELEMETRY_COMPILED
  EXPECT_EQ(after.CounterValue("otged_cascade_exact_incomplete_total") -
                before.CounterValue("otged_cascade_exact_incomplete_total"),
            total.exact_incomplete);
#endif

  // The tier-4 entry point itself runs no search on the pair: it answers
  // with the seed bound when that beats the identity matching's cost, and
  // otherwise with the identity matching as the witness.
  const FilterCascade cascade;
  const bool big_first = big.NumNodes() <= query.NumNodes();
  const Graph& b1 = big_first ? big : query;
  const Graph& b2 = big_first ? query : big;
  const GedSearchResult seeded = cascade.ExactSearch(b1, b2, 50'000, 7);
  EXPECT_FALSE(seeded.exact);
  EXPECT_EQ(seeded.ged, 7);
  EXPECT_EQ(seeded.expansions, 0);
  const GedSearchResult unseeded = cascade.ExactSearch(b1, b2, 50'000, -1);
  EXPECT_FALSE(unseeded.exact);
  EXPECT_EQ(unseeded.expansions, 0);
  EXPECT_EQ(EditCostFromMatching(b1, b2, unseeded.matching), unseeded.ged);
}

}  // namespace
}  // namespace otged
