/// \file search_dynamic_test.cpp
/// \brief Dynamic GraphStore semantics: stable ids, snapshot isolation,
/// snapshot lineage, Restore validation, chunked snapshots against a
/// plain vector model, the bound cache and its flush on a Restore — and a
/// linearizability-style hammer test interleaving insert/erase with
/// range queries, asserting every result is exact for the consistent
/// corpus its reported epoch names. The hammer test is written to be
/// clean under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "search/bound_cache.hpp"
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

TEST(DynamicGraphStoreTest, StableIdsAcrossErase) {
  Rng rng(5);
  GraphStore store;
  std::vector<Graph> graphs;
  for (int i = 0; i < 5; ++i) {
    graphs.push_back(AidsLikeGraph(&rng, 3, 6));
    EXPECT_EQ(store.Insert(graphs.back()), i);
  }
  EXPECT_TRUE(store.Erase(2));
  EXPECT_FALSE(store.Erase(2));  // already gone
  EXPECT_FALSE(store.Erase(99));
  EXPECT_EQ(store.Size(), 4);
  EXPECT_FALSE(store.Contains(2));
  for (int id : {0, 1, 3, 4}) {
    EXPECT_TRUE(store.Contains(id));
    EXPECT_TRUE(store.graph(id) == graphs[id]);  // survivors keep their id
  }
  // The next insert gets a fresh id, not the recycled one.
  EXPECT_EQ(store.Insert(AidsLikeGraph(&rng, 3, 6)), 5);

  auto snap = store.Snapshot();
  EXPECT_EQ(snap->SlotOf(2), -1);
  EXPECT_EQ(snap->SlotOf(3), 2);  // slots stay dense and id-ascending
  EXPECT_EQ(snap->id(snap->SlotOf(4)), 4);
}

TEST(DynamicGraphStoreTest, AddAllIsOneMutation) {
  Rng rng(19);
  std::vector<Graph> graphs;
  for (int i = 0; i < 8; ++i) graphs.push_back(AidsLikeGraph(&rng, 3, 6));
  GraphStore store;
  store.Insert(graphs[0]);
  const uint64_t before = store.Epoch();
  store.AddAll(graphs);
  EXPECT_EQ(store.Epoch(), before + 1);  // one snapshot for the batch
  EXPECT_EQ(store.Size(), 9);
  EXPECT_EQ(store.NextId(), 9);  // ids still consecutive, in order
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(store.graph(1 + i) == graphs[i]) << i;
  }
}

TEST(DynamicGraphStoreTest, SnapshotIsolation) {
  Rng rng(11);
  GraphStore store;
  for (int i = 0; i < 4; ++i) store.Insert(AidsLikeGraph(&rng, 3, 6));
  auto pinned = store.Snapshot();
  const uint64_t pinned_epoch = pinned->epoch();

  EXPECT_TRUE(store.Erase(1));
  store.Insert(AidsLikeGraph(&rng, 3, 6));

  // The pinned snapshot still sees the pre-mutation corpus.
  EXPECT_EQ(pinned->Size(), 4);
  EXPECT_EQ(pinned->epoch(), pinned_epoch);
  EXPECT_GE(pinned->SlotOf(1), 0);
  // The store has moved on.
  EXPECT_EQ(store.Size(), 4);
  EXPECT_EQ(store.Epoch(), pinned_epoch + 2);
  EXPECT_FALSE(store.Contains(1));
}

TEST(DynamicGraphStoreTest, OnlyRestoreChangesTheLineage) {
  Rng rng(13);
  GraphStore store;
  const uint64_t lineage = store.Snapshot()->lineage();
  for (int i = 0; i < 6; ++i) store.Insert(AidsLikeGraph(&rng, 3, 6));
  store.AddAll({AidsLikeGraph(&rng, 3, 6)});
  store.Erase(3);
  EXPECT_EQ(store.Snapshot()->lineage(), lineage);

  // Every store starts its own lineage.
  GraphStore other;
  EXPECT_NE(other.Snapshot()->lineage(), lineage);

  std::vector<std::pair<int, Graph>> same;
  same.emplace_back(0, store.graph(0));
  ASSERT_TRUE(store.Restore(std::move(same), store.NextId()));
  const uint64_t restored = store.Snapshot()->lineage();
  EXPECT_NE(restored, lineage);
  store.Insert(AidsLikeGraph(&rng, 3, 6));
  EXPECT_EQ(store.Snapshot()->lineage(), restored);

  // A moved-in store brings its lineage; the moved-from one starts anew.
  // (A moved-from store is valid and empty.)
  const uint64_t moved = other.Snapshot()->lineage();
  store = std::move(other);
  EXPECT_EQ(store.Snapshot()->lineage(), moved);
  EXPECT_NE(other.Snapshot()->lineage(), moved);
  EXPECT_NE(other.Snapshot()->lineage(), restored);
}

TEST(DynamicGraphStoreTest, RestoreRejectsNonIncreasingIds) {
  Rng rng(17);
  GraphStore store;
  store.Insert(AidsLikeGraph(&rng, 3, 6));
  Graph a = AidsLikeGraph(&rng, 3, 6), b = AidsLikeGraph(&rng, 3, 6);
  const uint64_t lineage = store.Snapshot()->lineage();
  std::vector<std::pair<int, Graph>> bad;
  bad.emplace_back(7, a);
  bad.emplace_back(7, b);
  EXPECT_FALSE(store.Restore(std::move(bad), 10));
  EXPECT_EQ(store.Size(), 1);  // untouched
  EXPECT_EQ(store.Snapshot()->lineage(), lineage);

  std::vector<std::pair<int, Graph>> good;
  good.emplace_back(3, a);
  good.emplace_back(9, b);
  EXPECT_TRUE(store.Restore(std::move(good), 5));
  EXPECT_EQ(store.Size(), 2);
  EXPECT_TRUE(store.Contains(3));
  EXPECT_TRUE(store.Contains(9));
  EXPECT_EQ(store.NextId(), 10);  // max(old counter, given, max id + 1)
  // Id 3 may now name a different graph, so caches must see a new lineage.
  EXPECT_NE(store.Snapshot()->lineage(), lineage);
}

/// The store's id -> graph contents as a plain vector: (id, index into
/// the graph pool), ascending by id.
using StoreModel = std::vector<std::pair<int, int>>;

void ExpectSnapshotMatches(const StoreSnapshot& snap, const StoreModel& model,
                           const std::vector<Graph>& pool, int next_id,
                           Rng* rng) {
  ASSERT_EQ(snap.Size(), static_cast<int>(model.size()));
  for (int slot = 0; slot < snap.Size(); ++slot) {
    const auto& [id, g] = model[static_cast<size_t>(slot)];
    ASSERT_EQ(snap.id(slot), id) << "slot " << slot;
    ASSERT_EQ(snap.SlotOf(id), slot) << "id " << id;
    ASSERT_TRUE(snap.graph(slot) == pool[static_cast<size_t>(g)])
        << "slot " << slot;
  }
  // Chunks are never empty nor over-full, and two neighbours never fit
  // in one chunk, which bounds the chunk count however the erases fall.
  size_t held = 0;
  for (size_t c = 0; c < snap.chunks().size(); ++c) {
    ASSERT_FALSE(snap.chunks()[c]->empty()) << "chunk " << c;
    ASSERT_LE(snap.chunks()[c]->size(), static_cast<size_t>(kStoreChunkSize))
        << "chunk " << c;
    held += snap.chunks()[c]->size();
    if (c > 0) {
      ASSERT_GT(snap.chunks()[c - 1]->size() + snap.chunks()[c]->size(),
                static_cast<size_t>(kStoreChunkSize))
          << "chunks " << c - 1 << ", " << c;
    }
  }
  ASSERT_EQ(held, model.size());
  for (int probe = 0; probe < 32; ++probe) {
    const int id = rng->UniformInt(-2, next_id + 2);
    const auto it = std::lower_bound(
        model.begin(), model.end(), std::make_pair(id, INT_MIN));
    if (it == model.end() || it->first != id) {
      ASSERT_EQ(snap.SlotOf(id), -1) << "absent id " << id;
    }
  }
}

TEST(DynamicGraphStoreTest, ChunkedSnapshotsMatchAVectorModel) {
  // A seeded mix of every mutation, mirrored on a plain vector; each
  // published snapshot must agree with the vector slot by slot.
  Rng rng(23);
  std::vector<Graph> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(AidsLikeGraph(&rng, 2, 6));
  const auto pick = [&] { return rng.UniformInt(0, 63); };

  GraphStore store;
  StoreModel model;
  int next_id = 0;
  const auto add_all = [&](int n) {
    std::vector<Graph> batch;
    for (int i = 0; i < n; ++i) {
      const int g = pick();
      batch.push_back(pool[static_cast<size_t>(g)]);
      model.emplace_back(next_id++, g);
    }
    store.AddAll(batch);
  };
  add_all(3 * kStoreChunkSize + 17);
  auto pinned = store.Snapshot();
  const StoreModel pinned_model = model;
  const int pinned_next_id = next_id;

  int writes = 0;
  for (int step = 0; step < 1000; ++step) {
    const double op = rng.Uniform();
    if (op < 0.44) {
      const int g = pick();
      ASSERT_EQ(store.Insert(pool[static_cast<size_t>(g)]), next_id);
      model.emplace_back(next_id++, g);
      ++writes;
    } else if (op < 0.93 && !model.empty()) {
      const auto victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(model.size()) - 1));
      ASSERT_TRUE(store.Erase(model[victim].first));
      model.erase(model.begin() + static_cast<long>(victim));
      ++writes;
    } else if (op < 0.945) {
      const int missing = next_id + rng.UniformInt(0, 5);
      ASSERT_FALSE(store.Erase(missing));
    } else if (op < 0.95 && !model.empty()) {
      // Erasing every other graph of a run, in random order, drains
      // neighbouring chunks until they merge.
      const auto first = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(model.size()) - 1));
      const size_t last = std::min(model.size(), first + 2 * kStoreChunkSize);
      std::vector<int> doomed;
      for (size_t i = first; i < last; i += 2) doomed.push_back(model[i].first);
      for (size_t i = doomed.size(); i > 1; --i)
        std::swap(doomed[i - 1], doomed[static_cast<size_t>(rng.UniformInt(
                                     0, static_cast<int>(i) - 1))]);
      for (int id : doomed) ASSERT_TRUE(store.Erase(id));
      writes += static_cast<int>(doomed.size());
      for (size_t i = first, kept = first; i < last; ++i)
        if ((i - first) % 2 == 1) model[kept++] = model[i];
      model.erase(model.begin() + static_cast<long>(first + (last - first) / 2),
                  model.begin() + static_cast<long>(last));
    } else if (op < 0.99) {
      add_all(rng.UniformInt(1, kStoreChunkSize + 64));
      ++writes;
    } else {
      // Keep every other graph, rebind a few ids to new graphs and move
      // the id counter forward.
      std::vector<std::pair<int, Graph>> entries;
      StoreModel restored;
      for (size_t i = 0; i < model.size(); i += 2) {
        const int g = rng.Bernoulli(0.1) ? pick() : model[i].second;
        entries.emplace_back(model[i].first, pool[static_cast<size_t>(g)]);
        restored.emplace_back(model[i].first, g);
      }
      const int counter = next_id + rng.UniformInt(0, 3);
      ASSERT_TRUE(store.Restore(std::move(entries), counter));
      model = std::move(restored);
      next_id = counter;
      ++writes;
    }
    ASSERT_EQ(store.NextId(), next_id);
    ExpectSnapshotMatches(*store.Snapshot(), model, pool, next_id, &rng);
    if (HasFatalFailure()) return;
  }
  // Erase down to an empty store, then grow it again.
  for (const auto& [id, g] : model) ASSERT_TRUE(store.Erase(id));
  model.clear();
  ExpectSnapshotMatches(*store.Snapshot(), model, pool, next_id, &rng);
  EXPECT_TRUE(store.Snapshot()->chunks().empty());
  ASSERT_EQ(store.Insert(pool[0]), next_id);
  model.emplace_back(next_id++, 0);
  ExpectSnapshotMatches(*store.Snapshot(), model, pool, next_id, &rng);

  // Over 1,000 writes later the early snapshot still reads as it did.
  ASSERT_GE(writes, 1000);
  ExpectSnapshotMatches(*pinned, pinned_model, pool, pinned_next_id, &rng);
}

TEST(BoundCacheTest, InsertLookupEvictAndClear) {
  BoundCache cache(/*capacity=*/16);  // 1 entry per shard
  EXPECT_FALSE(cache.Lookup(42, 0).has_value());
  cache.Insert(42, 0, 3);
  cache.Insert(42, 1, 5);
  ASSERT_TRUE(cache.Lookup(42, 0).has_value());
  EXPECT_EQ(*cache.Lookup(42, 0), 3);
  EXPECT_EQ(*cache.Lookup(42, 1), 5);
  EXPECT_EQ(cache.Size(), 2u);

  // Re-insert updates in place; distinct fingerprints are distinct keys.
  cache.Insert(42, 1, 4);
  EXPECT_EQ(*cache.Lookup(42, 1), 4);
  cache.Insert(43, 1, 9);
  EXPECT_EQ(*cache.Lookup(43, 1), 9);

  // Hammering one shard's capacity evicts the least recently used.
  for (int i = 0; i < 64; ++i) cache.Insert(1000 + i, 7, i);
  EXPECT_LE(cache.Size(), 16u);

  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_FALSE(cache.Lookup(43, 1).has_value());
}

/// Serving keeps caching across mutations: Insert and Erase keep the
/// lineage, so a pair proven exact before an erase is still answered from
/// the cache afterwards and the cache keeps every entry, the erased
/// graph's included (no later snapshot looks them up).
TEST(DynamicQueryTest, CacheSurvivesUnrelatedMutations) {
  Rng rng(23);
  GraphStore store;
  for (int i = 0; i < 12; ++i)
    store.Insert(RandomConnectedGraph(4, 1, 2, &rng));
  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);
  Graph query = RandomConnectedGraph(4, 1, 2, &rng);

  RangeResult cold = engine.Range(query, 2);
  EXPECT_EQ(cold.stats.cascade.cache_hits, 0);
  const size_t cached = engine.CacheSize();
  EXPECT_GT(cached, 0u);

  EXPECT_TRUE(store.Erase(7));
  RangeResult warm = engine.Range(query, 2);
  EXPECT_GT(warm.stats.cascade.cache_hits, 0);
  EXPECT_GE(engine.CacheSize(), cached);  // nothing was flushed
  // Same answer minus any id-7 hit.
  std::vector<int> expected;
  for (const RangeHit& h : cold.hits)
    if (h.id != 7) expected.push_back(h.id);
  std::vector<int> got;
  for (const RangeHit& h : warm.hits) got.push_back(h.id);
  EXPECT_EQ(got, expected);
}

void ExpectSameHits(const std::vector<SearchHit>& got,
                    const std::vector<SearchHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << i;
    EXPECT_EQ(got[i].ged, want[i].ged) << i;
    EXPECT_EQ(got[i].exact_distance, want[i].exact_distance) << i;
    EXPECT_EQ(got[i].lb, want[i].lb) << i;
  }
}

/// A Restore that binds the same ids to other graphs starts a new
/// lineage, and the engine flushes the distances it cached under the old
/// binding: warm answers equal a cache-less engine's on the same snapshot.
TEST(DynamicQueryTest, RestoreRebindingIdsFlushesTheCache) {
  Rng rng(29);
  const Graph query = RandomConnectedGraph(4, 1, 2, &rng);
  std::vector<Graph> near, far;
  for (int i = 0; i < 4; ++i) {
    near.push_back(query);
    far.push_back(AidsLikeGraph(&rng, 8, 9));
  }
  // Corpus A binds ids 0-3 to copies of the query and ids 4-7 to far
  // graphs; corpus B swaps the two halves.
  GraphStore store;
  store.AddAll(near);
  store.AddAll(far);
  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);
  // Top-k over the whole corpus proves every pair's exact distance.
  ASSERT_EQ(engine.TopK(query, 8).hits.size(), 8u);
  ASSERT_EQ(engine.Range(query, 1).hits.size(), 4u);
  ASSERT_GE(engine.CacheSize(), 8u);

  std::vector<std::pair<int, Graph>> swapped;
  for (int i = 0; i < 4; ++i) swapped.emplace_back(i, far[i]);
  for (int i = 0; i < 4; ++i) swapped.emplace_back(4 + i, near[i]);
  ASSERT_TRUE(store.Restore(std::move(swapped), store.NextId()));

  EngineOptions cold_opt = opt;
  cold_opt.use_bound_cache = false;
  QueryEngine cold(&store, cold_opt);
  const RangeResult range = engine.Range(query, 1);
  ExpectSameHits(range.hits, cold.Range(query, 1).hits);
  EXPECT_EQ(range.stats.cascade.cache_hits, 0);
  ASSERT_EQ(range.hits.size(), 4u);
  EXPECT_EQ(range.hits.front().id, 4);
  ExpectSameHits(engine.TopK(query, 2).hits, cold.TopK(query, 2).hits);
  ExpectSameHits(engine.TopK(query, 6).hits, cold.TopK(query, 6).hits);
}

/// The hammer: one mutator thread inserts and erases graphs while two
/// query threads serve range queries. Every result must be the exact
/// brute-force answer for the corpus at its reported epoch — a torn read
/// (mixing two epochs) or a stale index entry would break the equality.
TEST(DynamicQueryTest, ConcurrentMutationsSeeConsistentEpochs) {
  constexpr int kBase = 15, kExtras = 20, kQueries = 8, kRounds = 5;
  constexpr int kTau = 2;
  Rng rng(31);

  // Universe: base graphs get ids 0..kBase-1, the i-th extra gets id
  // kBase+i (one mutator, ids are assigned monotonically), so universe
  // index == stable id throughout.
  std::vector<Graph> universe;
  for (int i = 0; i < kBase + kExtras; ++i)
    universe.push_back(RandomConnectedGraph(rng.UniformInt(3, 5), 1, 2,
                                            &rng));
  std::vector<Graph> queries;
  for (int q = 0; q < kQueries; ++q)
    queries.push_back(RandomConnectedGraph(4, 1, 2, &rng));

  // Brute-force ground truth for every (query, universe graph) pair,
  // computed up front so verification is a pure lookup.
  std::vector<std::vector<int>> exact(kQueries);
  for (int q = 0; q < kQueries; ++q)
    for (const Graph& g : universe)
      exact[q].push_back(ExactGed(queries[q], g));

  GraphStore store;
  for (int i = 0; i < kBase; ++i) store.Insert(universe[i]);

  // Epoch -> sorted ids present. The mutator records the set after every
  // mutation; with a single mutator, Epoch() right after an op is that
  // op's epoch.
  std::mutex epochs_mu;
  std::map<uint64_t, std::vector<int>> epoch_sets;
  std::vector<int> base_ids(kBase);
  for (int i = 0; i < kBase; ++i) base_ids[i] = i;
  epoch_sets[store.Epoch()] = base_ids;

  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);

  std::thread mutator([&] {
    for (int i = 0; i < kExtras; ++i) {
      const int id = store.Insert(universe[kBase + i]);
      ASSERT_EQ(id, kBase + i);
      {
        std::lock_guard<std::mutex> lock(epochs_mu);
        std::vector<int> present = base_ids;
        present.push_back(id);
        epoch_sets[store.Epoch()] = std::move(present);
      }
      ASSERT_TRUE(store.Erase(id));
      {
        std::lock_guard<std::mutex> lock(epochs_mu);
        epoch_sets[store.Epoch()] = base_ids;
      }
    }
  });

  struct Observation {
    int query;
    uint64_t epoch;
    std::vector<int> hit_ids;
  };
  std::vector<std::vector<Observation>> observed(2);
  auto serve = [&](int worker) {
    for (int round = 0; round < kRounds; ++round) {
      for (int q = 0; q < kQueries; ++q) {
        RangeResult res = engine.Range(queries[q], kTau);
        Observation obs{q, res.stats.epoch, {}};
        for (const RangeHit& h : res.hits) obs.hit_ids.push_back(h.id);
        observed[worker].push_back(std::move(obs));
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
      std::vector<int> expected;
      for (int id : it->second)
        if (exact[obs.query][id] <= kTau) expected.push_back(id);
      EXPECT_EQ(obs.hit_ids, expected)
          << "query " << obs.query << " at epoch " << obs.epoch;
    }
  }
}

}  // namespace
}  // namespace otged
