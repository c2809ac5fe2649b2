/// \file search_index_test.cpp
/// \brief Consistency suite for the two-level candidate index: the
/// pseudo-metric property of the invariant lower bound, range candidates
/// as a superset of the LB-range, metamorphic identities (incremental
/// advance equals a fresh build; save→load equals rebuild; permuted
/// queries see identical candidates), erases after a Restore rebind
/// dropping out of candidates and top-k answers, loading or safely
/// refusing version-2 store files, and byte-identical engine answers
/// with and without the index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generator.hpp"
#include "graph/graph_io.hpp"
#include "search/index/graph_index.hpp"
#include "search/query_engine.hpp"
#include "search/store_serialize.hpp"

namespace otged {
namespace {

std::vector<Graph> RandomCorpus(int n, Rng* rng) {
  std::vector<Graph> corpus;
  for (int i = 0; i < n; ++i) corpus.push_back(AidsLikeGraph(rng, 3, 10));
  return corpus;
}

/// Brute { (lb, id) } over a snapshot, for comparisons.
std::vector<std::pair<int, int>> BruteBounds(const StoreSnapshot& snap,
                                             const GraphInvariants& qi) {
  std::vector<std::pair<int, int>> out;
  for (int slot = 0; slot < snap.Size(); ++slot)
    out.emplace_back(InvariantLowerBound(qi, snap.invariants(slot)),
                     snap.id(slot));
  return out;
}

TEST(IndexMetricTest, InvariantLowerBoundIsAPseudoMetric) {
  Rng rng(101);
  std::vector<GraphInvariants> invs;
  for (int i = 0; i < 40; ++i)
    invs.push_back(ComputeInvariants(AidsLikeGraph(&rng, 2, 12)));
  for (const GraphInvariants& a : invs) {
    EXPECT_EQ(InvariantLowerBound(a, a), 0);
    for (const GraphInvariants& b : invs) {
      EXPECT_EQ(InvariantLowerBound(a, b), InvariantLowerBound(b, a));
      EXPECT_GE(InvariantLowerBound(a, b), 0);
      for (const GraphInvariants& c : invs) {
        // The bound is a max of L1-style terms, so it obeys the triangle
        // inequality like GED itself; this pins that against a future
        // term that would break it.
        EXPECT_LE(InvariantLowerBound(a, c),
                  InvariantLowerBound(a, b) + InvariantLowerBound(b, c));
      }
    }
  }
}

TEST(GraphIndexTest, RangeCandidatesAreASupersetOfTheLbRange) {
  Rng rng(29);
  GraphStore store;
  store.AddAll(RandomCorpus(150, &rng));
  GraphIndex index;
  auto snap = store.Snapshot();
  auto view = index.ViewFor(snap);
  ASSERT_EQ(view->epoch(), snap->epoch());

  for (int q = 0; q < 15; ++q) {
    const GraphInvariants qi =
        ComputeInvariants(AidsLikeGraph(&rng, 3, 10));
    const auto brute = BruteBounds(*snap, qi);
    for (int tau : {0, 1, 3}) {
      std::vector<int> cand;
      IndexStats stats;
      view->RangeCandidates(qi, tau, &cand, &stats);
      EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
      EXPECT_EQ(stats.scanned, snap->Size());
      EXPECT_EQ(stats.scanned, stats.candidates + stats.PrunedTotal());
      // Levels 1+2 prune via bounds that never exceed the full
      // invariant bound, so every id with lb <= tau must survive.
      for (const auto& [lb, id] : brute) {
        if (lb <= tau) {
          EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), id))
              << "tau=" << tau << " id=" << id;
        }
      }
    }
  }
}

/// Both views must hand out the same candidates with the same counts
/// for a handful of fresh queries.
void ExpectSameCandidates(const IndexView& got, const IndexView& want,
                          Rng* rng, const std::string& step) {
  ASSERT_EQ(got.epoch(), want.epoch()) << step;
  ASSERT_EQ(got.Size(), want.Size()) << step;
  for (int q = 0; q < 3; ++q) {
    const GraphInvariants qi =
        ComputeInvariants(AidsLikeGraph(rng, 3, 10));
    for (int tau : {0, 1, 2}) {
      std::vector<int> a, b;
      IndexStats sa, sb;
      got.RangeCandidates(qi, tau, &a, &sa);
      want.RangeCandidates(qi, tau, &b, &sb);
      EXPECT_EQ(a, b) << step << " tau " << tau;
      EXPECT_EQ(sa.scanned, sb.scanned) << step << " tau " << tau;
      EXPECT_EQ(sa.partition_pruned, sb.partition_pruned) << step;
      EXPECT_EQ(sa.label_pruned, sb.label_pruned) << step;
      EXPECT_EQ(sa.partitions_seen, sb.partitions_seen) << step;
      EXPECT_EQ(sa.partitions_opened, sb.partitions_opened) << step;
      EXPECT_EQ(sa.candidates, sb.candidates) << step;
    }
  }
}

TEST(GraphIndexTest, IncrementalAdvanceMatchesFreshRebuild) {
  Rng rng(59);
  GraphStore store;
  store.AddAll(RandomCorpus(3 * kStoreChunkSize + 100, &rng));
  GraphIndex incremental;
  (void)incremental.ViewFor(store.Snapshot());  // prime the cached view

  // After every step the incremental index (which advances by diffing
  // the chunks its cached snapshot does not share with the new one) must
  // equal a from-scratch index built on the same snapshot.
  const auto check = [&](const std::shared_ptr<const StoreSnapshot>& snap,
                         const std::string& step) {
    GraphIndex fresh;
    ExpectSameCandidates(*incremental.ViewFor(snap), *fresh.ViewFor(snap),
                         &rng, step);
  };
  std::vector<Graph> extras = RandomCorpus(30, &rng);
  const auto churn = [&](int rounds, const std::string& phase) {
    for (int round = 0; round < rounds; ++round) {
      if (round % 3 != 0) {
        store.Insert(extras[static_cast<size_t>(round) % extras.size()]);
      } else {
        (void)store.Erase(rng.UniformInt(0, store.NextId() - 1));
      }
      check(store.Snapshot(), phase + " round " + std::to_string(round));
    }
  };
  churn(30, "churn");

  // Backward diff: an older pinned snapshot after newer ones.
  auto pinned = store.Snapshot();
  churn(6, "after pin");
  check(pinned, "older pinned snapshot");
  check(store.Snapshot(), "forward again");

  store.AddAll(RandomCorpus(kStoreChunkSize + 37, &rng));
  check(store.Snapshot(), "AddAll over one chunk");

  {
    auto snap = store.Snapshot();
    ASSERT_GE(snap->chunks().size(), 3u);
    std::vector<int> ids;
    for (const auto& e : *snap->chunks()[1]) ids.push_back(e->id);
    for (int id : ids) ASSERT_TRUE(store.Erase(id));
  }
  check(store.Snapshot(), "one chunk erased");

  std::vector<std::pair<int, Graph>> entries;
  {
    auto snap = store.Snapshot();
    for (int slot = 0; slot < snap->Size(); slot += 2)
      entries.emplace_back(snap->id(slot), snap->graph(slot));
  }
  ASSERT_TRUE(store.Restore(std::move(entries), store.NextId()));
  check(store.Snapshot(), "Restore");
  churn(9, "after Restore");
}

/// Field-by-field equality of two partitions, members by pointer.
void ExpectSamePartition(const IndexPartition& got,
                         const IndexPartition& want) {
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(got.num_edges, want.num_edges);
  EXPECT_EQ(got.members, want.members);
  ASSERT_EQ(got.postings.size(), want.postings.size());
  for (size_t p = 0; p < got.postings.size(); ++p) {
    EXPECT_EQ(got.postings[p].label, want.postings[p].label);
    EXPECT_EQ(got.postings[p].counts, want.postings[p].counts);
  }
  EXPECT_EQ(got.degree_min, want.degree_min);
  EXPECT_EQ(got.degree_max, want.degree_max);
  EXPECT_EQ(got.wl_prefixes, want.wl_prefixes);
}

TEST(GraphIndexTest, PatchedPartitionsEqualRebuiltOnes) {
  // Small graphs crowd few (n, m) signatures, so partitions are large
  // and a random diff touches most of them.
  Rng rng(61);
  std::vector<std::shared_ptr<const StoreEntry>> all;
  for (int id = 0; id < 900; ++id) {
    auto e = std::make_shared<StoreEntry>();
    e->id = id;
    e->graph = AidsLikeGraph(&rng, 3, 6);
    e->invariants = ComputeInvariants(e->graph);
    all.push_back(std::move(e));
  }
  // The base holds the even ids below 600. The diff adds odd ids among
  // them (as a backward diff does) and ids past them (as inserts do). It
  // removes a random third of the base; every member of the smallest
  // partition, which gets no adds and so must vanish; and every member of
  // the largest partition that holds its degree envelope's minimum at
  // position jmin or its maximum at position jmax (positions where some
  // but not all members do), so that envelope must narrow.
  StoreChunk base;
  for (size_t id = 0; id < 600; id += 2) base.push_back(all[id]);
  const PartitionMap base_map =
      BuildPartitionMap({std::make_shared<StoreChunk>(base)});
  const IndexPartition *smallest = nullptr, *largest = nullptr;
  for (const auto& [key, part] : base_map) {
    if (smallest == nullptr ||
        part->members.size() < smallest->members.size())
      smallest = part.get();
    if (largest == nullptr || part->members.size() > largest->members.size())
      largest = part.get();
  }
  const auto key_of = [](const std::shared_ptr<const StoreEntry>& e) {
    return PartitionKey(e->invariants.num_nodes, e->invariants.num_edges);
  };
  const uint64_t gone = PartitionKey(smallest->num_nodes, smallest->num_edges);
  const uint64_t narrowed =
      PartitionKey(largest->num_nodes, largest->num_edges);
  const auto holders = [&](size_t j, bool at_min) {
    size_t count = 0;
    for (const StoreEntry* m : largest->members)
      count += m->invariants.sorted_degrees[j] ==
               (at_min ? largest->degree_min[j] : largest->degree_max[j]);
    return count;
  };
  // The first such position for the minimum, the last for the maximum.
  const auto partly_held = [&](bool at_min) {
    const size_t n = largest->degree_min.size();
    for (size_t k = 0; k < n; ++k) {
      const size_t j = at_min ? k : n - 1 - k;
      const size_t count = holders(j, at_min);
      if (count > 0 && count < largest->members.size()) return j;
    }
    return n;
  };
  const size_t jmin = partly_held(true), jmax = partly_held(false);
  ASSERT_LT(jmin, largest->degree_min.size());
  ASSERT_LT(jmax, largest->degree_max.size());
  const auto on_edge = [&](const std::shared_ptr<const StoreEntry>& e) {
    const auto& deg = e->invariants.sorted_degrees;
    return key_of(e) == narrowed && (deg[jmin] == largest->degree_min[jmin] ||
                                     deg[jmax] == largest->degree_max[jmax]);
  };
  std::vector<const StoreEntry*> added, removed;
  StoreChunk after;  // the members the patched partitions must hold
  for (size_t id = 1; id < 900; id += id < 600 ? 6 : 1) {
    if (key_of(all[id]) == gone || key_of(all[id]) == narrowed) continue;
    added.push_back(all[id].get());
    after.push_back(all[id]);
  }
  for (const auto& e : base) {
    if (key_of(e) == gone || on_edge(e) || rng.Bernoulli(1.0 / 3)) {
      removed.push_back(e.get());
    } else {
      after.push_back(e);
    }
  }

  const PartitionMap patched = ApplyPartitionDiff(base_map, added, removed);
  ASSERT_EQ(patched.count(narrowed), 1u);
  const IndexPartition& slim = *patched.at(narrowed);
  EXPECT_GT(slim.degree_min[jmin], largest->degree_min[jmin]);
  EXPECT_LT(slim.degree_max[jmax], largest->degree_max[jmax]);
  std::sort(after.begin(), after.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  const PartitionMap rebuilt =
      BuildPartitionMap({std::make_shared<StoreChunk>(after)});
  EXPECT_EQ(patched.count(gone), 0u);
  ASSERT_EQ(patched.size(), rebuilt.size());
  for (const auto& [key, part] : rebuilt) {
    auto it = patched.find(key);
    ASSERT_NE(it, patched.end()) << key;
    ExpectSamePartition(*it->second, *part);
  }
}

TEST(GraphIndexTest, SaveThenLoadEqualsRebuild) {
  Rng rng(73);
  GraphStore store;
  store.AddAll(RandomCorpus(70, &rng));
  for (int id : {3, 17, 44}) ASSERT_TRUE(store.Erase(id));

  const std::string path = ::testing::TempDir() + "index_roundtrip.otg";
  std::string error;
  ASSERT_TRUE(SaveGraphStore(store, path, &error)) << error;
  GraphStore loaded;
  ASSERT_TRUE(LoadGraphStore(&loaded, path, &error)) << error;
  std::remove(path.c_str());

  // An index over the reloaded store and one over the source store give
  // identical candidate sets.
  GraphIndex loaded_index, source_index;
  auto lview = loaded_index.ViewFor(loaded.Snapshot());
  auto rview = source_index.ViewFor(store.Snapshot());
  for (int q = 0; q < 8; ++q) {
    const GraphInvariants qi =
        ComputeInvariants(AidsLikeGraph(&rng, 3, 10));
    std::vector<int> a, b;
    IndexStats sa, sb;
    lview->RangeCandidates(qi, 2, &a, &sa);
    rview->RangeCandidates(qi, 2, &b, &sb);
    EXPECT_EQ(a, b);
  }
}

TEST(GraphIndexTest, PermutedQueriesSeeIdenticalCandidates) {
  Rng rng(83);
  GraphStore store;
  store.AddAll(RandomCorpus(100, &rng));
  GraphIndex index;
  auto view = index.ViewFor(store.Snapshot());

  for (int q = 0; q < 10; ++q) {
    const Graph query = AidsLikeGraph(&rng, 4, 10);
    std::vector<int> perm(static_cast<size_t>(query.NumNodes()));
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1],
                perm[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int>(i) - 1))]);
    const Graph permuted = PermuteGraph(query, perm);

    const GraphInvariants qi = ComputeInvariants(query);
    const GraphInvariants pi = ComputeInvariants(permuted);
    for (int tau : {0, 1, 3}) {
      std::vector<int> a, b;
      IndexStats sa, sb;
      view->RangeCandidates(qi, tau, &a, &sa);
      view->RangeCandidates(pi, tau, &b, &sb);
      EXPECT_EQ(a, b) << "tau=" << tau;
    }
  }
}

TEST(GraphIndexTest, RestoreReboundIdsAreFullyForgottenOnErase) {
  // Regression: a Restore rebinds ids to fresh entry objects, which the
  // incremental diff records as remove + add of the same id. A later
  // Erase of such an id must drop it from every candidate set and from
  // every answer.
  Rng rng(127);
  GraphStore store;
  store.AddAll(RandomCorpus(20, &rng));
  GraphIndex index;
  (void)index.ViewFor(store.Snapshot());
  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine engine(&store, opt);
  const Graph query = AidsLikeGraph(&rng, 3, 10);
  (void)engine.Range(query, 1);  // prime the engine's own index view

  std::vector<std::pair<int, Graph>> entries;
  {
    auto snap = store.Snapshot();
    for (int slot = 0; slot < snap->Size(); ++slot)
      entries.emplace_back(snap->id(slot), snap->graph(slot));
  }
  ASSERT_TRUE(store.Restore(std::move(entries), store.NextId()));
  (void)index.ViewFor(store.Snapshot());  // absorb the rebind
  (void)engine.Range(query, 1);

  const int victim = 5;
  ASSERT_TRUE(store.Erase(victim));
  auto post = store.Snapshot();
  auto view = index.ViewFor(post);

  const GraphInvariants qi = ComputeInvariants(query);
  std::vector<int> range_ids;
  IndexStats stats;
  view->RangeCandidates(qi, 1 << 20, &range_ids, &stats);  // covers all
  EXPECT_FALSE(
      std::binary_search(range_ids.begin(), range_ids.end(), victim));
  EXPECT_EQ(range_ids.size(), static_cast<size_t>(post->Size()));

  TopKResult all = engine.TopK(query, post->Size());
  EXPECT_EQ(all.hits.size(), static_cast<size_t>(post->Size()));
  for (const TopKHit& h : all.hits) EXPECT_NE(h.id, victim);
}

/// Reads a whole file into a string.
std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Rewrites the v1 file `v1` (header, payload, checksum) into a v2 file
/// at `path`: version field 2, `section` appended to the payload, and a
/// recomputed checksum — so the loader's section parser is what decides.
void WriteAsV2(const std::string& v1, const std::string& section,
               const std::string& path) {
  std::string file = v1.substr(0, v1.size() - 8) + section + "01234567";
  const uint32_t version = 2;
  std::memcpy(&file[8], &version, 4);
  const uint64_t checksum =
      Fnv1a64(std::string_view(file).substr(16, file.size() - 24));
  std::memcpy(&file[file.size() - 8], &checksum, 8);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

template <typename T>
void AppendRaw(std::string* buf, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  buf->append(bytes, sizeof(T));
}

TEST(GraphIndexTest, V2FilesLoadOrAreRefusedWithTheStoreUntouched) {
  // Older builds wrote version 2: the entries, then a flag byte and (flag
  // 1) a VP-tree section. Such files must still load, serving the same
  // answers; a malformed section must be refused before the store moves.
  Rng rng(131);
  GraphStore source;
  source.AddAll(RandomCorpus(30, &rng));
  ASSERT_TRUE(source.Erase(7));
  const std::string path = ::testing::TempDir() + "index_v2.otg";
  std::string error;
  ASSERT_TRUE(SaveGraphStore(source, path, &error)) << error;
  const std::string v1 = ReadFile(path);
  uint32_t written_version = 0;
  std::memcpy(&written_version, &v1[8], 4);
  EXPECT_EQ(written_version, 1u);

  // A well-formed flag-1 section: int32 prefix bits, uint64 node count,
  // per node int64 id + three int32 fields, then a uint64 digest.
  std::string tree(1, '\1');
  AppendRaw<int32_t>(&tree, 16);
  AppendRaw<uint64_t>(&tree, static_cast<uint64_t>(source.Size()));
  auto snap = source.Snapshot();
  for (int slot = 0; slot < snap->Size(); ++slot) {
    AppendRaw<int64_t>(&tree, snap->id(slot));
    AppendRaw<int32_t>(&tree, 0);
    AppendRaw<int32_t>(&tree, 0);
    AppendRaw<int32_t>(&tree, -1);
  }
  AppendRaw<uint64_t>(&tree, 0x1234u);

  EngineOptions opt;
  opt.num_threads = 2;
  QueryEngine source_engine(&source, opt);
  std::vector<Graph> queries;
  for (int q = 0; q < 4; ++q) queries.push_back(AidsLikeGraph(&rng, 3, 10));

  for (const std::string& section : {std::string(1, '\0'), tree}) {
    WriteAsV2(v1, section, path);
    GraphStore loaded;
    ASSERT_TRUE(LoadGraphStore(&loaded, path, &error))
        << "flag " << int(section[0]) << ": " << error;
    ASSERT_EQ(loaded.Size(), source.Size());
    EXPECT_EQ(loaded.NextId(), source.NextId());
    QueryEngine loaded_engine(&loaded, opt);
    for (const Graph& query : queries) {
      RangeResult a = source_engine.Range(query, 2);
      RangeResult b = loaded_engine.Range(query, 2);
      TopKResult ta = source_engine.TopK(query, 5);
      TopKResult tb = loaded_engine.TopK(query, 5);
      ASSERT_EQ(a.hits.size(), b.hits.size());
      for (size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i].id, b.hits[i].id);
        EXPECT_EQ(a.hits[i].ged, b.hits[i].ged);
        EXPECT_EQ(a.hits[i].exact_distance, b.hits[i].exact_distance);
      }
      ASSERT_EQ(ta.hits.size(), tb.hits.size());
      for (size_t i = 0; i < ta.hits.size(); ++i) {
        EXPECT_EQ(ta.hits[i].id, tb.hits[i].id);
        EXPECT_EQ(ta.hits[i].ged, tb.hits[i].ged);
        EXPECT_EQ(ta.hits[i].exact_distance, tb.hits[i].exact_distance);
      }
    }
  }

  const std::string bad_sections[] = {
      std::string(1, '\2'),             // unknown flag
      tree.substr(0, tree.size() - 1),  // section one byte short
      tree + std::string(1, '\0'),      // section one byte long
  };
  for (const std::string& section : bad_sections) {
    WriteAsV2(v1, section, path);
    GraphStore target;
    target.AddAll(RandomCorpus(3, &rng));
    const uint64_t epoch = target.Epoch();
    error.clear();
    EXPECT_FALSE(LoadGraphStore(&target, path, &error))
        << "section of " << section.size() << " bytes";
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(target.Size(), 3);
    EXPECT_EQ(target.NextId(), 3);
    EXPECT_EQ(target.Epoch(), epoch);
  }
  std::remove(path.c_str());
}

TEST(GraphIndexTest, EngineAnswersAreByteIdenticalWithAndWithoutIndex) {
  Rng rng(113);
  GraphStore store;
  store.AddAll(RandomCorpus(120, &rng));
  EngineOptions with;
  with.num_threads = 2;
  EngineOptions without = with;
  without.use_index = false;
  QueryEngine indexed(&store, with);
  QueryEngine brute(&store, without);

  for (int q = 0; q < 6; ++q) {
    const Graph query = AidsLikeGraph(&rng, 3, 10);
    for (int tau : {0, 2}) {
      RangeResult a = indexed.Range(query, tau);
      RangeResult b = brute.Range(query, tau);
      ASSERT_EQ(a.hits.size(), b.hits.size());
      for (size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i].id, b.hits[i].id);
        EXPECT_EQ(a.hits[i].ged, b.hits[i].ged);
        EXPECT_EQ(a.hits[i].exact_distance, b.hits[i].exact_distance);
      }
      // The fold keeps candidates == corpus size on both paths.
      EXPECT_EQ(a.stats.cascade.candidates, b.stats.cascade.candidates);
      EXPECT_EQ(a.stats.index.scanned,
                a.stats.index.candidates + a.stats.index.PrunedTotal());
    }
    TopKResult ta = indexed.TopK(query, 9);
    TopKResult tb = brute.TopK(query, 9);
    ASSERT_EQ(ta.hits.size(), tb.hits.size());
    for (size_t i = 0; i < ta.hits.size(); ++i) {
      EXPECT_EQ(ta.hits[i].id, tb.hits[i].id);
      EXPECT_EQ(ta.hits[i].ged, tb.hits[i].ged);
      EXPECT_EQ(ta.hits[i].exact_distance, tb.hits[i].exact_distance);
    }
  }
}

}  // namespace
}  // namespace otged
