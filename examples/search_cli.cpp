/// \file search_cli.cpp
/// \brief Command-line front end for the filter–verify search engine.
///
/// Three modes:
///
/// One-shot (original interface): builds a synthetic corpus, ingests it
/// into a GraphStore, and serves range or top-k queries, printing
/// per-query results and cascade telemetry.
///   search_cli [dataset] [count] [mode] [arg] [queries] [threads]
///     dataset  aids | linux | imdb | powerlaw   (default aids)
///     count    corpus size                      (default 200)
///     mode     range | topk                     (default range)
///     arg      tau for range, k for topk        (default 3)
///     queries  number of queries to serve       (default 5)
///     threads  worker threads, 0 = hardware     (default 0)
///
/// Metrics (`search_cli metrics [dataset] [count] [queries] [threads]`):
/// resets the process metrics registry, serves a range + top-k workload,
/// reconciles the registry's cascade AND index counters against the
/// summed QueryStats of the same run (they must match exactly, or the
/// command exits 1), then exports the registry twice — Prometheus text
/// after the `--- prometheus ---` marker, JSON after the `--- json ---`
/// marker.
///
/// REPL (`search_cli repl [threads]`): drives one dynamic GraphStore +
/// QueryEngine with commands from stdin, exercising mutation, persistence
/// and batched serving:
///   gen <dataset> <count>    insert synthetic graphs (stable ids printed)
///   add <path>               insert every graph of a t/v/e corpus file
///   rm <id>                  erase one graph by stable id
///   save <path>              persist the store (versioned, checksummed)
///   load <path>              replace the store from a persisted file
///   range <tau> <n>          serve n synthetic queries, one at a time
///   topk <k> <n>             same, top-k
///   batch <tau> <n>          serve n queries as one RangeBatch pool pass
///   info                     store size / epoch / cache occupancy, plus a
///                            metrics snapshot (cache hit rate, per-tier
///                            settle fractions)
///   quit
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "graph/graph_io.hpp"
#include "search/query_engine.hpp"
#include "search/store_serialize.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

using namespace otged;

namespace {

Graph MakeQueryGraph(const std::string& dataset, Rng* rng) {
  if (dataset == "linux") return LinuxLikeGraph(rng);
  if (dataset == "imdb") return ImdbLikeGraph(rng, 7, 30);
  if (dataset == "powerlaw")
    return PowerLawGraph(rng->UniformInt(10, 30), 2, rng);
  return AidsLikeGraph(rng);
}

void PrintStats(const QueryStats& stats) {
  const CascadeStats& c = stats.cascade;
  std::printf(
      "    %.2f ms | epoch %llu | %ld candidates: %ld index-pruned, "
      "%ld invariant-pruned, %ld branch-pruned, %ld heuristic, "
      "%ld exact, %ld cached | %ld exact calls | "
      "%.0f%% pruned before solvers\n",
      stats.wall_ms, static_cast<unsigned long long>(stats.epoch),
      c.candidates, c.pruned_index, c.pruned_invariant, c.pruned_branch,
      c.decided_heuristic, c.decided_exact, c.cache_hits, c.exact_calls,
      100.0 * c.PrunedBeforeSolvers());
}

void PrintRange(const RangeResult& res, int tau) {
  std::printf("    %zu hits within tau=%d:", res.hits.size(), tau);
  for (const RangeHit& h : res.hits)
    std::printf(" %d(ged%s%d)", h.id, h.exact_distance ? "=" : "<=", h.ged);
  std::printf("\n");
  PrintStats(res.stats);
}

/// One-line digest of the process metrics registry: bound-cache hit rate
/// and the fraction of candidate pairs each tier settled.
void PrintMetricsSnapshot() {
  const telemetry::MetricsSnapshot snap = telemetry::Registry().Snapshot();
  const long hits = snap.CounterValue("otged_bound_cache_hits_total");
  const long misses = snap.CounterValue("otged_bound_cache_misses_total");
  const long lookups = hits + misses;
  const long candidates =
      snap.CounterValue("otged_cascade_candidates_total");
  std::printf("cache hit rate %.1f%% (%ld/%ld lookups)\n",
              lookups ? 100.0 * static_cast<double>(hits) /
                            static_cast<double>(lookups)
                      : 0.0,
              hits, lookups);
  if (candidates == 0) {
    std::printf("no candidate pairs evaluated yet\n");
    return;
  }
  struct {
    const char* label;
    const char* counter;
  } tiers[] = {
      {"index-pruned", "otged_cascade_pruned_total{tier=\"index\"}"},
      {"invariant-pruned", "otged_cascade_pruned_total{tier=\"invariant\"}"},
      {"identity-passed", "otged_cascade_passed_total{tier=\"invariant\"}"},
      {"branch-pruned", "otged_cascade_pruned_total{tier=\"branch\"}"},
      {"heuristic", "otged_cascade_decided_total{tier=\"heuristic\"}"},
      {"exact", "otged_cascade_decided_total{tier=\"exact\"}"},
      {"cached", "otged_cascade_cache_hits_total"},
  };
  std::printf("%ld candidate pairs settled by:", candidates);
  for (const auto& t : tiers)
    std::printf(" %s %.1f%%", t.label,
                100.0 * static_cast<double>(snap.CounterValue(t.counter)) /
                    static_cast<double>(candidates));
  std::printf("\n");
  // Gauges track the current index view; zero when no index is built.
  long index_size = 0, index_partitions = 0;
  for (const auto& g : snap.gauges) {
    if (g.name == "otged_index_size") index_size = g.value;
    if (g.name == "otged_index_partitions") index_partitions = g.value;
  }
  std::printf("index: %ld graphs in %ld partitions\n", index_size,
              index_partitions);
}

/// `search_cli metrics`: serve a workload, then prove the exported
/// counters say the same thing as the per-query stats.
int RunMetrics(const std::string& dataset, int count, int num_queries,
               int threads) {
  telemetry::Registry().Reset();
  Rng rng(7);
  GraphStore store;
  std::vector<Graph> corpus;
  corpus.reserve(count);
  for (int i = 0; i < count; ++i)
    corpus.push_back(MakeQueryGraph(dataset, &rng));
  store.AddAll(corpus);

  EngineOptions opt;
  opt.num_threads = threads;
  opt.cascade.exact_budget = 500'000;
  QueryEngine engine(&store, opt);
  std::printf("corpus: %d %s graphs | %d worker threads | serving %d range "
              "+ %d top-k queries\n",
              store.Size(), dataset.c_str(), engine.num_threads(),
              num_queries, num_queries);

  CascadeStats total;
  IndexStats itotal;
  for (int q = 0; q < num_queries; ++q) {
    Graph query = MakeQueryGraph(dataset, &rng);
    RangeResult range = engine.Range(query, 3);
    total.Merge(range.stats.cascade);
    itotal.Merge(range.stats.index);
    TopKResult topk = engine.TopK(query, 5);
    total.Merge(topk.stats.cascade);
    itotal.Merge(topk.stats.index);
  }

  const telemetry::MetricsSnapshot snap = telemetry::Registry().Snapshot();
  struct {
    const char* counter;
    long expected;
  } rows[] = {
      {"otged_cascade_candidates_total", total.candidates},
      {"otged_cascade_pruned_total{tier=\"index\"}", total.pruned_index},
      {"otged_cascade_pruned_total{tier=\"invariant\"}",
       total.pruned_invariant},
      {"otged_cascade_passed_total{tier=\"invariant\"}",
       total.passed_invariant},
      {"otged_cascade_pruned_total{tier=\"branch\"}", total.pruned_branch},
      {"otged_cascade_decided_total{tier=\"heuristic\"}",
       total.decided_heuristic},
      {"otged_cascade_decided_total{tier=\"exact\"}", total.decided_exact},
      {"otged_cascade_cache_hits_total", total.cache_hits},
      {"otged_cascade_exact_calls_total", total.exact_calls},
      {"otged_cascade_exact_incomplete_total", total.exact_incomplete},
      // The index counters reconcile against the summed per-query
      // IndexStats the same way.
      {"otged_index_candidates_total", itotal.candidates},
      {"otged_index_pruned_total{level=\"partition\"}",
       itotal.partition_pruned},
      {"otged_index_pruned_total{level=\"label\"}", itotal.label_pruned},
      {"otged_index_partitions_opened_total", itotal.partitions_opened},
  };
  bool ok = total.SettledTotal() == total.candidates;
  std::printf("\nreconciliation (registry counter vs summed QueryStats):\n");
  std::printf("  settled-by-some-tier %ld vs candidates %ld  [%s]\n",
              total.SettledTotal(), total.candidates,
              ok ? "PASS" : "FAIL");
  const bool index_ok =
      itotal.scanned == itotal.candidates + itotal.PrunedTotal();
  ok = ok && index_ok;
  std::printf("  index scanned %ld vs candidates+pruned %ld  [%s]\n",
              itotal.scanned, itotal.candidates + itotal.PrunedTotal(),
              index_ok ? "PASS" : "FAIL");
  for (const auto& row : rows) {
    // Absent counter == never incremented: a call site registers its
    // metric on first increment, so a workload with e.g. zero cache hits
    // legitimately leaves that counter unregistered.
    const long got = snap.CounterValue(row.counter, 0);
    const bool match = got == row.expected;
    ok = ok && match;
    std::printf("  %-52s %8ld vs %8ld  [%s]\n", row.counter, got,
                row.expected, match ? "PASS" : "FAIL");
  }

  std::printf("\n--- prometheus ---\n%s",
              telemetry::ToPrometheusText(snap).c_str());
  std::printf("\n--- json ---\n%s", telemetry::ToJson(snap).c_str());
  return ok ? 0 : 1;
}

int RunRepl(int threads) {
  GraphStore store;
  EngineOptions opt;
  opt.num_threads = threads;
  opt.cascade.exact_budget = 500'000;
  QueryEngine engine(&store, opt);
  std::printf("engine: %d worker threads; type commands (quit to exit)\n",
              engine.num_threads());

  Rng rng(7);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream cmd(line);
    std::string op;
    if (!(cmd >> op) || op[0] == '#') continue;
    if (op == "quit" || op == "exit") break;

    if (op == "gen") {
      std::string dataset = "aids";
      int count = 10;
      cmd >> dataset >> count;
      int first = -1, last = -1;
      for (int i = 0; i < count; ++i) {
        last = store.Insert(MakeQueryGraph(dataset, &rng));
        if (first < 0) first = last;
      }
      std::printf("inserted %d %s graphs, ids %d..%d (epoch %llu)\n", count,
                  dataset.c_str(), first, last,
                  static_cast<unsigned long long>(store.Epoch()));
    } else if (op == "add") {
      std::string path, error;
      cmd >> path;
      std::vector<Graph> graphs = LoadGraphs(path, &error);
      if (!error.empty()) {
        std::printf("error: %s\n", error.c_str());
        continue;
      }
      for (Graph& g : graphs) store.Insert(std::move(g));
      std::printf("inserted %zu graphs from %s (size %d, epoch %llu)\n",
                  graphs.size(), path.c_str(), store.Size(),
                  static_cast<unsigned long long>(store.Epoch()));
    } else if (op == "rm") {
      int id = -1;
      cmd >> id;
      const bool erased = store.Erase(id);
      std::printf(erased ? "erased %d (epoch %llu)\n"
                         : "no graph with id %d (epoch %llu)\n",
                  id, static_cast<unsigned long long>(store.Epoch()));
    } else if (op == "save") {
      std::string path, error;
      cmd >> path;
      if (SaveGraphStore(store, path, &error))
        std::printf("saved %d graphs to %s\n", store.Size(), path.c_str());
      else
        std::printf("error: %s\n", error.c_str());
    } else if (op == "load") {
      std::string path, error;
      cmd >> path;
      if (LoadGraphStore(&store, path, &error))
        std::printf("loaded %d graphs from %s (epoch %llu)\n", store.Size(),
                    path.c_str(),
                    static_cast<unsigned long long>(store.Epoch()));
      else
        std::printf("error: %s\n", error.c_str());
    } else if (op == "range" || op == "topk") {
      int arg = 3, n = 1;
      cmd >> arg >> n;
      for (int q = 0; q < n; ++q) {
        Graph query = MakeQueryGraph("aids", &rng);
        std::printf("query %d (n=%d m=%d):\n", q, query.NumNodes(),
                    query.NumEdges());
        if (op == "topk") {
          TopKResult res = engine.TopK(query, arg);
          for (const TopKHit& h : res.hits)
            std::printf("    id %4d  ged %d\n", h.id, h.ged);
          PrintStats(res.stats);
        } else {
          PrintRange(engine.Range(query, arg), arg);
        }
      }
    } else if (op == "batch") {
      int tau = 3, n = 4;
      cmd >> tau >> n;
      std::vector<Graph> queries;
      for (int q = 0; q < n; ++q)
        queries.push_back(MakeQueryGraph("aids", &rng));
      std::vector<RangeResult> results = engine.RangeBatch(queries, tau);
      for (int q = 0; q < n; ++q) {
        std::printf("query %d:\n", q);
        PrintRange(results[q], tau);
      }
    } else if (op == "info") {
      std::printf("size %d | epoch %llu | next id %d | cached pairs %zu\n",
                  store.Size(),
                  static_cast<unsigned long long>(store.Epoch()),
                  store.NextId(), engine.CacheSize());
      PrintMetricsSnapshot();
    } else {
      std::printf("unknown command: %s\n", op.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "repl") == 0)
    return RunRepl(argc > 2 ? std::atoi(argv[2]) : 0);
  if (argc > 1 && std::strcmp(argv[1], "metrics") == 0)
    return RunMetrics(argc > 2 ? argv[2] : "aids",
                      argc > 3 ? std::atoi(argv[3]) : 120,
                      argc > 4 ? std::atoi(argv[4]) : 4,
                      argc > 5 ? std::atoi(argv[5]) : 0);

  std::string dataset = argc > 1 ? argv[1] : "aids";
  int count = argc > 2 ? std::atoi(argv[2]) : 200;
  std::string mode = argc > 3 ? argv[3] : "range";
  int arg = argc > 4 ? std::atoi(argv[4]) : 3;
  int num_queries = argc > 5 ? std::atoi(argv[5]) : 5;
  int threads = argc > 6 ? std::atoi(argv[6]) : 0;

  Rng rng(7);
  GraphStore store;
  for (int i = 0; i < count; ++i) store.Insert(MakeQueryGraph(dataset, &rng));
  std::printf("corpus: %d %s graphs\n", store.Size(), dataset.c_str());

  EngineOptions opt;
  opt.num_threads = threads;
  opt.cascade.exact_budget = 500'000;
  QueryEngine engine(&store, opt);
  std::printf("engine: %d worker threads\n\n", engine.num_threads());

  for (int q = 0; q < num_queries; ++q) {
    Graph query = MakeQueryGraph(dataset, &rng);
    std::printf("query %d (n=%d m=%d):\n", q, query.NumNodes(),
                query.NumEdges());
    if (mode == "topk") {
      TopKResult res = engine.TopK(query, arg);
      for (const TopKHit& h : res.hits)
        std::printf("    id %4d  ged %d\n", h.id, h.ged);
      PrintStats(res.stats);
    } else {
      PrintRange(engine.Range(query, arg), arg);
    }
  }
  return 0;
}
