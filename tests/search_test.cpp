#include "search/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "search/thread_pool.hpp"

namespace otged {
namespace {

/// Exact GED by branch and bound seeded with the Classic upper bound;
/// graphs in the fixtures are small enough that the default budget is
/// never exhausted, so this is the brute-force ground truth.
int ExactGed(const Graph& a, const Graph& b) {
  auto [g1, g2] = OrderBySize(a, b);
  BnbOptions opt;
  opt.initial_upper_bound = ClassicGed(*g1, *g2).ged;
  GedSearchResult res = BranchAndBoundGed(*g1, *g2, opt);
  EXPECT_TRUE(res.exact);
  return res.ged;
}

GraphStore MakeSmallStore(int count, int num_labels, uint64_t seed) {
  Rng rng(seed);
  GraphStore store;
  for (int i = 0; i < count; ++i) {
    store.Insert(RandomConnectedGraph(rng.UniformInt(3, 7),
                                   rng.UniformInt(0, 3), num_labels, &rng));
  }
  return store;
}

TEST(GraphStoreTest, InvariantsMatchGraph) {
  Rng rng(3);
  Graph g = AidsLikeGraph(&rng, 4, 9);
  GraphStore store;
  int id = store.Insert(g);
  const GraphInvariants& inv = store.invariants(id);
  EXPECT_EQ(inv.num_nodes, g.NumNodes());
  EXPECT_EQ(inv.num_edges, g.NumEdges());
  EXPECT_EQ(static_cast<int>(inv.sorted_labels.size()), g.NumNodes());
  EXPECT_TRUE(std::is_sorted(inv.sorted_labels.begin(),
                             inv.sorted_labels.end()));
  EXPECT_TRUE(std::is_sorted(inv.sorted_degrees.begin(),
                             inv.sorted_degrees.end()));
  // Degree sum equals twice the edge count.
  EXPECT_EQ(std::accumulate(inv.sorted_degrees.begin(),
                            inv.sorted_degrees.end(), 0),
            2 * g.NumEdges());
}

TEST(InvariantLowerBoundTest, AdmissibleOnRandomPairs) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    int labels = trial % 2 ? 5 : 1;
    Graph a = RandomConnectedGraph(rng.UniformInt(3, 7),
                                   rng.UniformInt(0, 3), labels, &rng);
    Graph b = RandomConnectedGraph(rng.UniformInt(3, 7),
                                   rng.UniformInt(0, 3), labels, &rng);
    int lb = InvariantLowerBound(ComputeInvariants(a), ComputeInvariants(b));
    EXPECT_LE(lb, ExactGed(a, b));
  }
}

TEST(InvariantLowerBoundTest, ZeroOnIdenticalAndPermutedGraphs) {
  Rng rng(23);
  Graph g = AidsLikeGraph(&rng, 5, 9);
  std::vector<int> perm(g.NumNodes());
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(&perm);
  Graph h = PermuteGraph(g, perm);
  EXPECT_EQ(InvariantLowerBound(ComputeInvariants(g), ComputeInvariants(h)),
            0);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  // n = 1000 is not a multiple of grain 7, so the last chunk is short.
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (int grain : {1, 7, 64}) {
      const int n = 1000;
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> bad_worker{0};
      pool.ParallelFor(n, grain, [&](int64_t i, int worker) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (worker < 0 || worker >= pool.num_threads())
          bad_worker.fetch_add(1, std::memory_order_relaxed);
      });
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1)
            << "threads " << threads << " grain " << grain << " i " << i;
      EXPECT_EQ(bad_worker.load(std::memory_order_relaxed), 0);
    }
  }
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyLoops) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(
      0, 1, [&](int64_t, int) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(count.load(std::memory_order_relaxed), 0);
  pool.ParallelFor(3, 100, [&](int64_t, int) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(std::memory_order_relaxed), 3);
}

/// Hundreds of back-to-back loops barely above the grain. In the fast
/// rounds the caller usually runs every chunk itself, so workers wake
/// after their loop has ended, while the next one may be running; in
/// the slow rounds workers claim chunks and the caller must wait for
/// them. Each loop must see exactly its own indices, body and worker ids.
TEST(ThreadPoolTest, ReusableAcrossLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 400; ++round) {
    const int grain = 1 + round % 4;
    const int64_t n = grain + 1 + round % 3;
    const bool slow = round % 2 == 1;
    std::atomic<long> sum{0};
    std::atomic<int> bad_worker{0};
    pool.ParallelFor(n, grain, [&](int64_t i, int worker) {
      if (slow) std::this_thread::sleep_for(std::chrono::microseconds(20));
      sum.fetch_add(i + round, std::memory_order_relaxed);
      if (worker < 0 || worker >= pool.num_threads())
        bad_worker.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(std::memory_order_relaxed),
              n * (n - 1) / 2 + n * round)
        << "round " << round;
    EXPECT_EQ(bad_worker.load(std::memory_order_relaxed), 0);
  }
}

/// The headline property: a range query returns *exactly* the brute-force
/// answer set — admissible lower bounds never dismiss a true hit and
/// feasible upper bounds never admit a false one.
TEST(FilterCascadeTest, RangeMatchesBruteForceExactly) {
  GraphStore store = MakeSmallStore(40, 4, 5);
  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);

  Rng rng(99);
  for (int q = 0; q < 4; ++q) {
    Graph query = RandomConnectedGraph(rng.UniformInt(3, 7),
                                       rng.UniformInt(0, 3), 4, &rng);
    for (int tau : {0, 1, 2, 4}) {
      RangeResult res = engine.Range(query, tau);
      std::vector<int> expected;
      for (int id = 0; id < store.Size(); ++id)
        if (ExactGed(query, store.graph(id)) <= tau) expected.push_back(id);
      std::vector<int> got;
      for (const RangeHit& h : res.hits) got.push_back(h.id);
      EXPECT_EQ(got, expected) << "tau=" << tau << " query=" << q;
      // Every reported distance is a valid upper bound within tau.
      for (const RangeHit& h : res.hits) {
        EXPECT_LE(h.ged, tau);
        EXPECT_GE(h.ged, ExactGed(query, store.graph(h.id)));
        if (h.exact_distance) {
          EXPECT_EQ(h.ged, ExactGed(query, store.graph(h.id)));
        }
      }
    }
  }
}

/// Even with a starved exact tier (budget exhausted on every pair that
/// reaches it), the cascade must never dismiss a true hit: unresolved
/// candidates are kept conservatively and flagged as unproven.
TEST(FilterCascadeTest, NoFalseDismissalUnderBudgetExhaustion) {
  GraphStore store = MakeSmallStore(30, 2, 9);
  EngineOptions opt;
  opt.cascade.exact_budget = 1;  // every exact verify exhausts immediately
  QueryEngine engine(&store, opt);
  Rng rng(55);
  Graph query = RandomConnectedGraph(5, 2, 2, &rng);
  for (int tau : {1, 3}) {
    RangeResult res = engine.Range(query, tau);
    std::vector<int> got;
    for (const RangeHit& h : res.hits) got.push_back(h.id);
    for (int id = 0; id < store.Size(); ++id) {
      if (ExactGed(query, store.graph(id)) <= tau) {
        EXPECT_TRUE(std::find(got.begin(), got.end(), id) != got.end())
            << "true hit " << id << " dismissed at tau=" << tau;
      }
    }
    // Unproven hits are flagged, proven hits respect tau.
    for (const RangeHit& h : res.hits) {
      if (h.exact_distance) {
        EXPECT_LE(h.ged, tau);
      }
    }
  }
}

TEST(FilterCascadeTest, StatsAreConsistent) {
  GraphStore store = MakeSmallStore(30, 1, 6);
  QueryEngine engine(&store, {});
  Rng rng(7);
  Graph query = RandomConnectedGraph(5, 2, 1, &rng);
  RangeResult res = engine.Range(query, 2);
  const CascadeStats& s = res.stats.cascade;
  EXPECT_EQ(s.candidates, store.Size());
  // Every candidate is accounted for by exactly one outcome bucket.
  EXPECT_EQ(s.SettledTotal(), s.candidates);
  EXPECT_GE(s.pruned_invariant + s.pruned_branch, 0);
}

TEST(QueryEngineTest, TopKMatchesBruteForce) {
  GraphStore store = MakeSmallStore(35, 3, 11);
  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);

  Rng rng(42);
  Graph query = RandomConnectedGraph(6, 2, 3, &rng);
  for (int k : {1, 5, 12}) {
    TopKResult res = engine.TopK(query, k);
    // Brute force: exact distance to every graph, sort by (ged, id).
    std::vector<TopKHit> expected;
    for (int id = 0; id < store.Size(); ++id)
      expected.push_back({id, ExactGed(query, store.graph(id))});
    std::sort(expected.begin(), expected.end(),
              [](const TopKHit& a, const TopKHit& b) {
                return a.ged != b.ged ? a.ged < b.ged : a.id < b.id;
              });
    expected.resize(k);
    ASSERT_EQ(res.hits.size(), expected.size()) << "k=" << k;
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(res.hits[i].id, expected[i].id) << "k=" << k << " i=" << i;
      EXPECT_EQ(res.hits[i].ged, expected[i].ged) << "k=" << k << " i=" << i;
    }
  }
}

TEST(QueryEngineTest, FindsIdenticalGraphAtDistanceZero) {
  GraphStore store = MakeSmallStore(20, 2, 13);
  Rng rng(1);
  Graph needle = AidsLikeGraph(&rng, 5, 8);
  int id = store.Insert(needle);
  QueryEngine engine(&store, {});
  TopKResult res = engine.TopK(needle, 1);
  ASSERT_EQ(res.hits.size(), 1u);
  EXPECT_EQ(res.hits[0].id, id);
  EXPECT_EQ(res.hits[0].ged, 0);
}

/// Parallel serving must be a pure function of (store, query): identical
/// hits and identical aggregate statistics for every thread count.
TEST(QueryEngineTest, DeterministicAcrossThreadCounts) {
  GraphStore store = MakeSmallStore(45, 2, 21);
  Rng rng(77);
  std::vector<Graph> queries;
  for (int q = 0; q < 3; ++q)
    queries.push_back(RandomConnectedGraph(rng.UniformInt(4, 7),
                                           rng.UniformInt(0, 2), 2, &rng));

  auto run = [&](int threads) {
    EngineOptions opt;
    opt.num_threads = threads;
    QueryEngine engine(&store, opt);
    std::vector<RangeResult> ranges = engine.RangeBatch(queries, 3);
    std::vector<TopKResult> topks = engine.TopKBatch(queries, 7);
    return std::make_pair(std::move(ranges), std::move(topks));
  };

  auto [base_range, base_topk] = run(1);
  for (int threads : {2, 4, 8}) {
    auto [ranges, topks] = run(threads);
    ASSERT_EQ(ranges.size(), base_range.size());
    for (size_t q = 0; q < ranges.size(); ++q) {
      ASSERT_EQ(ranges[q].hits.size(), base_range[q].hits.size())
          << "threads=" << threads << " q=" << q;
      for (size_t i = 0; i < ranges[q].hits.size(); ++i) {
        EXPECT_EQ(ranges[q].hits[i].id, base_range[q].hits[i].id);
        EXPECT_EQ(ranges[q].hits[i].ged, base_range[q].hits[i].ged);
      }
      ASSERT_EQ(topks[q].hits.size(), base_topk[q].hits.size());
      for (size_t i = 0; i < topks[q].hits.size(); ++i) {
        EXPECT_EQ(topks[q].hits[i].id, base_topk[q].hits[i].id);
        EXPECT_EQ(topks[q].hits[i].ged, base_topk[q].hits[i].ged);
      }
      // Aggregate statistics are schedule-independent too.
      EXPECT_EQ(ranges[q].stats.cascade.candidates,
                base_range[q].stats.cascade.candidates);
      EXPECT_EQ(ranges[q].stats.cascade.pruned_invariant,
                base_range[q].stats.cascade.pruned_invariant);
      EXPECT_EQ(ranges[q].stats.cascade.exact_calls,
                base_range[q].stats.cascade.exact_calls);
    }
  }
}

/// Acceptance property of the batch API: RangeBatch/TopKBatch return
/// exactly what the corresponding sequence of single-query calls returns
/// — same ids, same distances, same exactness flags. Checked both with
/// the bound cache disabled (covers duplicate queries in one batch) and
/// with the default cache on distinct queries.
TEST(QueryEngineTest, BatchEqualsPerQueryCalls) {
  GraphStore store = MakeSmallStore(40, 3, 29);
  Rng rng(61);
  std::vector<Graph> queries;
  for (int q = 0; q < 4; ++q)
    queries.push_back(RandomConnectedGraph(rng.UniformInt(4, 7),
                                           rng.UniformInt(0, 2), 3, &rng));

  auto check = [&](EngineOptions opt, const std::vector<Graph>& qs) {
    QueryEngine single(&store, opt);
    QueryEngine batched(&store, opt);
    for (int tau : {1, 3}) {
      std::vector<RangeResult> batch = batched.RangeBatch(qs, tau);
      ASSERT_EQ(batch.size(), qs.size());
      for (size_t q = 0; q < qs.size(); ++q) {
        RangeResult one = single.Range(qs[q], tau);
        ASSERT_EQ(batch[q].hits.size(), one.hits.size())
            << "tau=" << tau << " q=" << q;
        for (size_t i = 0; i < one.hits.size(); ++i) {
          EXPECT_EQ(batch[q].hits[i].id, one.hits[i].id);
          EXPECT_EQ(batch[q].hits[i].ged, one.hits[i].ged);
          EXPECT_EQ(batch[q].hits[i].exact_distance,
                    one.hits[i].exact_distance);
        }
      }
    }
    for (int k : {1, 6, 50 /* > Size() */}) {
      QueryEngine s2(&store, opt), b2(&store, opt);
      std::vector<TopKResult> batch = b2.TopKBatch(qs, k);
      for (size_t q = 0; q < qs.size(); ++q) {
        TopKResult one = s2.TopK(qs[q], k);
        ASSERT_EQ(batch[q].hits.size(), one.hits.size())
            << "k=" << k << " q=" << q;
        for (size_t i = 0; i < one.hits.size(); ++i) {
          EXPECT_EQ(batch[q].hits[i].id, one.hits[i].id);
          EXPECT_EQ(batch[q].hits[i].ged, one.hits[i].ged);
        }
      }
    }
  };

  EngineOptions cached;
  cached.num_threads = 2;
  check(cached, queries);

  // With the cache off, even a duplicated query in one batch must match
  // its per-query twin bit for bit.
  EngineOptions uncached;
  uncached.num_threads = 2;
  uncached.use_bound_cache = false;
  std::vector<Graph> with_dup = queries;
  with_dup.push_back(queries[0]);
  check(uncached, with_dup);

  // With the cache on, duplicates in one batch share one evaluation, so
  // their entries are byte-identical to each other for any thread count.
  QueryEngine dup_engine(&store, cached);
  std::vector<RangeResult> dup = dup_engine.RangeBatch(with_dup, 3);
  const RangeResult& a = dup.front();
  const RangeResult& b = dup.back();
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].id, b.hits[i].id);
    EXPECT_EQ(a.hits[i].ged, b.hits[i].ged);
    EXPECT_EQ(a.hits[i].exact_distance, b.hits[i].exact_distance);
  }
}

/// Top-k deepens each query of a batch on its own: a query stops after
/// the first level that gives it k hits while the others keep going.
/// Each batch entry must equal its per-query call (hits and every
/// counter), with the index on and off, and equal brute force.
TEST(QueryEngineTest, TopKBatchEqualsPerQueryWhenQueriesStopAtDifferentLevels) {
  GraphStore store = MakeSmallStore(40, 3, 37);
  Rng rng(83);
  std::vector<Graph> queries = {store.graph(5)};  // a stored graph
  SyntheticEditOptions sopt;
  sopt.num_edits = 2;
  sopt.num_labels = 3;
  queries.push_back(SyntheticEditPair(store.graph(11), sopt, &rng).g2);
  queries.push_back(RandomConnectedGraph(9, 3, 3, &rng));  // far away
  constexpr int kK = 3;

  for (const bool use_index : {true, false}) {
    EngineOptions opt;
    opt.num_threads = 3;
    opt.use_index = use_index;
    QueryEngine single(&store, opt), batched(&store, opt);
    const std::vector<TopKResult> batch = batched.TopKBatch(queries, kK);
    ASSERT_EQ(batch.size(), queries.size());
    std::vector<int> stop_levels;
    for (size_t q = 0; q < queries.size(); ++q) {
      const TopKResult one = single.TopK(queries[q], kK);
      const TopKResult& got = batch[q];
      ASSERT_EQ(got.hits.size(), static_cast<size_t>(kK)) << "q=" << q;
      ASSERT_EQ(one.hits.size(), got.hits.size()) << "q=" << q;
      for (size_t i = 0; i < got.hits.size(); ++i) {
        EXPECT_EQ(got.hits[i].id, one.hits[i].id) << "q=" << q;
        EXPECT_EQ(got.hits[i].ged, one.hits[i].ged) << "q=" << q;
        EXPECT_EQ(got.hits[i].lb, one.hits[i].lb) << "q=" << q;
        EXPECT_EQ(got.hits[i].exact_distance, one.hits[i].exact_distance);
      }
      const CascadeStats& a = got.stats.cascade;
      const CascadeStats& b = one.stats.cascade;
      EXPECT_EQ(a.candidates, b.candidates) << "q=" << q;
      EXPECT_EQ(a.pruned_index, b.pruned_index) << "q=" << q;
      EXPECT_EQ(a.exact_calls, b.exact_calls) << "q=" << q;
      EXPECT_EQ(a.SettledTotal(), a.candidates) << "q=" << q;
      EXPECT_EQ(got.stats.index.candidates, one.stats.index.candidates);

      // Brute force: exact distance to every graph, sorted by (ged, id).
      std::vector<TopKHit> expected;
      for (int id = 0; id < store.Size(); ++id)
        expected.push_back({id, ExactGed(queries[q], store.graph(id))});
      std::sort(expected.begin(), expected.end(),
                [](const TopKHit& x, const TopKHit& y) {
                  return x.ged != y.ged ? x.ged < y.ged : x.id < y.id;
                });
      for (int i = 0; i < kK; ++i) {
        EXPECT_EQ(got.hits[i].id, expected[i].id) << "q=" << q;
        EXPECT_EQ(got.hits[i].ged, expected[i].ged) << "q=" << q;
        EXPECT_EQ(got.hits[i].lb, expected[i].ged) << "q=" << q;
        EXPECT_TRUE(got.hits[i].exact_distance) << "q=" << q;
      }
      stop_levels.push_back(got.hits.back().lb);
    }
    std::sort(stop_levels.begin(), stop_levels.end());
    EXPECT_LT(stop_levels.front(), stop_levels.back())
        << "every query stopped at the same level";
  }
}

TEST(QueryEngineTest, CascadeTiersActuallyPrune) {
  // On a corpus with diverse sizes, most candidates must die in the
  // cheap tiers for a small tau — the whole point of filter–verify.
  Rng rng(31);
  GraphStore store;
  for (int i = 0; i < 60; ++i)
    store.Insert(PowerLawGraph(rng.UniformInt(8, 24), rng.UniformInt(1, 3),
                            &rng));
  EngineOptions opt;
  opt.cascade.exact_budget = 50'000;  // keep the verify tier test-sized
  QueryEngine engine(&store, opt);
  Graph query = PowerLawGraph(15, 2, &rng);
  RangeResult res = engine.Range(query, 4);
  const CascadeStats& s = res.stats.cascade;
  EXPECT_EQ(s.candidates, store.Size());
  EXPECT_GE(s.PrunedBeforeSolvers(), 0.5)
      << "invariant+branch tiers pruned too little";
}

}  // namespace
}  // namespace otged
