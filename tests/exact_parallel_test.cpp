/// \file exact_parallel_test.cpp
/// \brief The deterministic parallel exact verifier: byte-identical
/// results for any thread count (including under budget exhaustion),
/// agreement with the sequential branch-and-bound and A*, the
/// structure-of-arrays scratch state against the recompute-from-scratch
/// reference, and a TSan-targeted concurrent verify hammer where many
/// caller threads share one cascade (and its shared-incumbent exact
/// pool) with every per-pair result checked against single-threaded
/// branch-and-bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "exact/astar.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/parallel_bnb.hpp"
#include "exact/search_common.hpp"
#include "graph/generator.hpp"
#include "search/filter_cascade.hpp"

namespace otged {
namespace {

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

bool SameResult(const GedSearchResult& x, const GedSearchResult& y) {
  return x.ged == y.ged && x.matching == y.matching && x.exact == y.exact &&
         x.expansions == y.expansions;
}

// The acceptance bar: byte-identical GedSearchResult (ged, matching,
// exact flag — and expansions, which subsumes the budget accounting)
// for thread counts {1, 2, 8} on 200+ randomized pairs, plus agreement
// with the sequential solver and a feasibility witness.
TEST(ParallelBnbTest, ByteIdenticalAcrossThreadCounts) {
  WorkStealingPool pool1(1), pool2(2), pool8(8);
  Rng rng(20250807);
  ParallelBnbStats st1, st2, st8;
  long parallel_pairs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto [g1, g2] = SamplePair(trial, &rng);
    const GedSearchResult r1 =
        ParallelBranchAndBoundGed(g1, g2, &pool1, {}, &st1);
    const GedSearchResult r2 =
        ParallelBranchAndBoundGed(g1, g2, &pool2, {}, &st2);
    const GedSearchResult r8 =
        ParallelBranchAndBoundGed(g1, g2, &pool8, {}, &st8);
    const GedSearchResult inl =
        ParallelBranchAndBoundGed(g1, g2, nullptr, {}, nullptr);
    EXPECT_TRUE(SameResult(r1, r2)) << "trial " << trial;
    EXPECT_TRUE(SameResult(r1, r8)) << "trial " << trial;
    EXPECT_TRUE(SameResult(r1, inl)) << "trial " << trial;
    // Stats are part of the determinism contract too.
    EXPECT_EQ(st1.subtrees, st2.subtrees) << "trial " << trial;
    EXPECT_EQ(st1.rounds, st8.rounds) << "trial " << trial;
    EXPECT_EQ(st1.incumbent_updates, st8.incumbent_updates)
        << "trial " << trial;
    if (st1.subtrees > 1) ++parallel_pairs;

    // Agreement with the sequential driver (these graphs are small
    // enough that neither budget is ever exhausted).
    const GedSearchResult seq = BranchAndBoundGed(g1, g2);
    ASSERT_TRUE(seq.exact) << "trial " << trial;
    EXPECT_TRUE(r1.exact) << "trial " << trial;
    EXPECT_EQ(r1.ged, seq.ged) << "trial " << trial;
    EXPECT_EQ(EditCostFromMatching(g1, g2, r1.matching), r1.ged)
        << "trial " << trial;
  }
  // The harness must actually exercise multi-subtree searches, not
  // degenerate single-leaf ones.
  EXPECT_GT(parallel_pairs, 100);
}

TEST(ParallelBnbTest, AgreesWithAstar) {
  WorkStealingPool pool(4);
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto astar = AstarGed(g1, g2);
    ASSERT_TRUE(astar.has_value());
    const GedSearchResult par = ParallelBranchAndBoundGed(g1, g2, &pool);
    EXPECT_TRUE(par.exact);
    EXPECT_EQ(par.ged, astar->ged) << "trial " << trial;
  }
}

// Budget exhaustion must be deterministic as well: the expansions a run
// consumed, the incomplete flag, and the incumbent it got to must not
// depend on the thread count.
TEST(ParallelBnbTest, BudgetExhaustionIsDeterministic) {
  WorkStealingPool pool1(1), pool4(4);
  Rng rng(4242);
  int exhausted = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Graph a = ImdbLikeGraph(&rng, 8, 10);
    Graph b = ImdbLikeGraph(&rng, 8, 10);
    if (a.NumNodes() > b.NumNodes()) std::swap(a, b);
    ParallelBnbOptions opt;
    opt.max_expansions = 64;  // starve: these trees need far more
    opt.round_quota = 8;
    const GedSearchResult r1 =
        ParallelBranchAndBoundGed(a, b, &pool1, opt);
    const GedSearchResult r4 =
        ParallelBranchAndBoundGed(a, b, &pool4, opt);
    EXPECT_TRUE(SameResult(r1, r4)) << "trial " << trial;
    // Even incomplete results must carry a feasible witness.
    EXPECT_EQ(EditCostFromMatching(a, b, r1.matching), r1.ged)
        << "trial " << trial;
    if (!r1.exact) ++exhausted;
  }
  EXPECT_GT(exhausted, 0) << "starvation fixture never actually starved";
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

// Concurrent verify hammer, written to run under ThreadSanitizer: many
// caller threads share one FilterCascade whose exact tier fans each
// pair over a shared-incumbent parallel pool; every per-pair result is
// checked against single-threaded branch-and-bound.
TEST(ParallelBnbHammerTest, ConcurrentCallersMatchSequential) {
  constexpr int kPairs = 24;
  constexpr int kThreads = 8;
  Rng rng(1357);
  std::vector<std::pair<Graph, Graph>> pairs;
  std::vector<GedSearchResult> want;
  for (int i = 0; i < kPairs; ++i) {
    pairs.push_back(SamplePair(i, &rng));
    want.push_back(BranchAndBoundGed(pairs.back().first,
                                     pairs.back().second));
    ASSERT_TRUE(want.back().exact);
  }
  CascadeOptions copt;
  copt.parallel_exact_threads = 4;
  FilterCascade cascade(copt);
  std::atomic<int> next{0};
  std::atomic<int> mismatches{0};
  std::vector<CascadeStats> stats(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = next.fetch_add(1, std::memory_order_relaxed);
           i < kPairs * 4;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        const auto& [g1, g2] = pairs[static_cast<size_t>(i % kPairs)];
        const GedSearchResult got = cascade.ExactSearch(
            g1, g2, /*budget=*/20'000'000, /*initial_upper_bound=*/-1,
            &stats[t]);
        if (!got.exact ||
            got.ged != want[static_cast<size_t>(i % kPairs)].ged ||
            EditCostFromMatching(g1, g2, got.matching) != got.ged) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
  CascadeStats total;
  for (const CascadeStats& s : stats) total.Merge(s);
  EXPECT_EQ(total.exact_parallel_runs, long{kPairs} * 4);
  EXPECT_GT(total.exact_parallel_subtrees, 0);
  EXPECT_GT(total.exact_parallel_rounds, 0);
}

}  // namespace
}  // namespace otged
