/// \file search_index_hammer_test.cpp
/// \brief Concurrency hammer for the candidate index, written to be
/// clean under ThreadSanitizer: one mutator thread churns the store
/// while query threads pull snapshot-consistent views and cross-check
/// indexed candidate sets against a brute-force scan of the very
/// snapshot each view was built for — a torn view or a stale posting
/// would drop a true candidate. A second test hammers the full engine,
/// bound cache on, with a mutator that also Restores corpora rebinding
/// ids to other graphs, and verifies every served range and top-k answer
/// against per-epoch exact ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "search/index/graph_index.hpp"
#include "search/query_engine.hpp"

namespace otged {
namespace {

int ExactGed(const Graph& a, const Graph& b) {
  auto [g1, g2] = OrderBySize(a, b);
  BnbOptions opt;
  opt.initial_upper_bound = ClassicGed(*g1, *g2).ged;
  GedSearchResult res = BranchAndBoundGed(*g1, *g2, opt);
  EXPECT_TRUE(res.exact);
  return res.ged;
}

/// The index-level hammer: every view a querier obtains must agree with
/// a linear scan of the snapshot it claims to represent, across
/// concurrent incremental advances.
TEST(IndexHammerTest, ConcurrentViewsMatchTheirSnapshots) {
  constexpr int kBase = 60, kMutations = 80, kTau = 2;
  Rng rng(171);
  GraphStore store;
  std::vector<Graph> pool;
  for (int i = 0; i < kBase; ++i) pool.push_back(AidsLikeGraph(&rng, 3, 9));
  store.AddAll(pool);
  std::vector<GraphInvariants> queries;
  for (int q = 0; q < 6; ++q)
    queries.push_back(ComputeInvariants(AidsLikeGraph(&rng, 3, 9)));

  GraphIndex index;
  (void)index.ViewFor(store.Snapshot());

  std::thread mutator([&] {
    Rng mrng(172);
    for (int i = 0; i < kMutations; ++i) {
      if (i % 2 == 0) {
        store.Insert(pool[static_cast<size_t>(i) % pool.size()]);
      } else {
        (void)store.Erase(mrng.UniformInt(0, store.NextId() - 1));
      }
    }
  });

  auto serve = [&] {
    for (int round = 0; round < 40; ++round) {
      auto snap = store.Snapshot();
      auto view = index.ViewFor(snap);
      ASSERT_EQ(view->epoch(), snap->epoch());
      ASSERT_EQ(view->Size(), snap->Size());
      const GraphInvariants& qi =
          queries[static_cast<size_t>(round) % queries.size()];

      // Brute ground truth straight from the pinned snapshot.
      std::vector<int> lb_expected;
      for (int slot = 0; slot < snap->Size(); ++slot)
        if (InvariantLowerBound(qi, snap->invariants(slot)) <= kTau)
          lb_expected.push_back(snap->id(slot));

      std::vector<int> cand;
      IndexStats cstats;
      view->RangeCandidates(qi, kTau, &cand, &cstats);
      ASSERT_EQ(cstats.scanned, snap->Size());
      ASSERT_EQ(cstats.scanned, cstats.candidates + cstats.PrunedTotal());
      for (int id : lb_expected)  // superset of every true hit
        ASSERT_TRUE(std::binary_search(cand.begin(), cand.end(), id))
            << "epoch " << snap->epoch() << " id " << id;
    }
  };
  std::thread querier0(serve);
  std::thread querier1(serve);
  mutator.join();
  querier0.join();
  querier1.join();
}

/// The engine-level hammer: indexed range and top-k queries racing one
/// mutator must return the exact brute-force answer for the corpus at
/// their reported epoch. The mutator inserts and erases extras and every
/// third step Restores the base ids bound to the other of two graph
/// sets, so a distance the bound cache kept across a Restore would show.
/// After each mutation it waits for two more reads, and the queriers
/// serve until it is done, so reads land between the mutations.
TEST(IndexHammerTest, IndexedServingIsExactAtEveryEpoch) {
  constexpr int kBase = 12, kExtras = 14, kQueries = 5, kRounds = 4;
  constexpr int kTau = 2, kK = 3;
  Rng rng(191);

  // Universe: base ids 0..kBase-1 bind to universe [0, kBase) or to
  // [kBase, 2 * kBase); the i-th extra is universe 2 * kBase + i and
  // gets id kBase + i (one mutator; Restore keeps the id counter).
  std::vector<Graph> universe;
  for (int i = 0; i < 2 * kBase + kExtras; ++i)
    universe.push_back(AidsLikeGraph(&rng, 3, 6));
  std::vector<Graph> queries;
  for (int q = 0; q < kQueries; ++q)
    queries.push_back(AidsLikeGraph(&rng, 3, 6));

  std::vector<std::vector<int>> exact(kQueries);
  for (int q = 0; q < kQueries; ++q)
    for (const Graph& g : universe)
      exact[static_cast<size_t>(q)].push_back(ExactGed(queries[q], g));

  GraphStore store;
  for (int i = 0; i < kBase; ++i) store.Insert(universe[i]);

  // Epoch -> (id, universe index) of every graph present.
  using Binding = std::vector<std::pair<int, int>>;
  std::mutex epochs_mu;
  std::map<uint64_t, Binding> epoch_sets;
  Binding base;
  for (int i = 0; i < kBase; ++i) base.emplace_back(i, i);
  epoch_sets[store.Epoch()] = base;

  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);

  std::atomic<int> reads{0};
  std::atomic<bool> mutated{false};
  // A failed ASSERT returns from `mutate` only, so `mutated` is always set.
  const auto mutate = [&] {
    const auto record = [&](Binding present) {
      {
        std::lock_guard<std::mutex> lock(epochs_mu);
        epoch_sets[store.Epoch()] = std::move(present);
      }
      const int seen = reads.load(std::memory_order_relaxed);
      while (reads.load(std::memory_order_relaxed) < seen + 2)
        std::this_thread::yield();
    };
    for (int i = 0; i < kExtras; ++i) {
      if (i % 3 == 2) {
        std::vector<std::pair<int, Graph>> entries;
        for (auto& [id, u] : base) {
          u = u < kBase ? u + kBase : u - kBase;
          entries.emplace_back(id, universe[static_cast<size_t>(u)]);
        }
        ASSERT_TRUE(store.Restore(std::move(entries), store.NextId()));
        record(base);
      }
      const int id = store.Insert(universe[2 * kBase + i]);
      ASSERT_EQ(id, kBase + i);
      Binding present = base;
      present.emplace_back(id, 2 * kBase + i);
      record(std::move(present));
      ASSERT_TRUE(store.Erase(id));
      record(base);
    }
  };
  std::thread mutator([&] {
    mutate();
    mutated.store(true, std::memory_order_relaxed);
  });

  struct Observation {
    int query;
    uint64_t epoch;
    std::vector<int> hit_ids;
    std::vector<std::pair<int, int>> topk;  ///< (id, ged)
  };
  std::vector<std::vector<Observation>> observed(2);
  auto serve = [&](int worker) {
    for (int round = 0;
         round < kRounds || !mutated.load(std::memory_order_relaxed);
         ++round) {
      for (int q = 0; q < kQueries; ++q) {
        RangeResult res = engine.Range(queries[q], kTau);
        reads.fetch_add(1, std::memory_order_relaxed);
        EXPECT_EQ(res.stats.index.scanned,
                  res.stats.index.candidates +
                      res.stats.index.PrunedTotal());
        Observation obs{q, res.stats.epoch, {}, {}};
        for (const RangeHit& h : res.hits) obs.hit_ids.push_back(h.id);
        observed[static_cast<size_t>(worker)].push_back(std::move(obs));
        // Top-k deepens through the same index views, one per level.
        TopKResult top = engine.TopK(queries[q], kK);
        reads.fetch_add(1, std::memory_order_relaxed);
        Observation tobs{q, top.stats.epoch, {}, {}};
        for (const TopKHit& h : top.hits) {
          EXPECT_TRUE(h.exact_distance);
          tobs.topk.emplace_back(h.id, h.ged);
        }
        observed[static_cast<size_t>(worker)].push_back(std::move(tobs));
      }
    }
  };
  std::thread querier0([&] { serve(0); });
  std::thread querier1([&] { serve(1); });
  mutator.join();
  querier0.join();
  querier1.join();

  for (const auto& worker_obs : observed) {
    for (const Observation& obs : worker_obs) {
      auto it = epoch_sets.find(obs.epoch);
      ASSERT_NE(it, epoch_sets.end())
          << "served epoch " << obs.epoch << " was never a corpus state";
      const std::vector<int>& dist = exact[static_cast<size_t>(obs.query)];
      if (!obs.topk.empty()) {
        std::vector<std::pair<int, int>> nearest;  ///< (ged, id)
        for (const auto& [id, u] : it->second)
          nearest.emplace_back(dist[static_cast<size_t>(u)], id);
        std::sort(nearest.begin(), nearest.end());
        nearest.resize(std::min<size_t>(kK, nearest.size()));
        std::vector<std::pair<int, int>> expected;  ///< (id, ged)
        for (const auto& [ged, id] : nearest) expected.emplace_back(id, ged);
        EXPECT_EQ(obs.topk, expected)
            << "top-k query " << obs.query << " at epoch " << obs.epoch;
        continue;
      }
      std::vector<int> expected;
      for (const auto& [id, u] : it->second)
        if (dist[static_cast<size_t>(u)] <= kTau) expected.push_back(id);
      EXPECT_EQ(obs.hit_ids, expected)
          << "query " << obs.query << " at epoch " << obs.epoch;
    }
  }
}

}  // namespace
}  // namespace otged
