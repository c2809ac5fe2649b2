/// \file bench_search_throughput.cpp
/// \brief Serving benchmark for the filter–verify search engine.
///
/// Six sections:
///   1. PRUNING    — range queries over a power-law corpus; reports the
///                   fraction of candidate pairs dismissed by the
///                   index and the invariant + BRANCH lower bounds,
///                   i.e. before the upper-bound or exact solver runs
///                   (target: >= 50%).
///   2. CORRECTNESS— range results on a small AIDS-like corpus compared
///                   pair-by-pair against brute-force exact GED.
///   3. THROUGHPUT — queries/second for 1, 2 and 4 worker threads over
///                   the same power-law corpus.
///   4. BATCHING   — the same query set served as Q sequential Range
///                   calls vs one RangeBatch (a single flattened pool
///                   pass); reports the amortization speedup.
///   5. WARM CACHE — the query set served twice on one engine; the
///                   second pass answers proven-exact pairs from the
///                   bound cache, reporting hit counts and speedup.
///   6. SLO        — per-query latency distribution under a serving loop
///                   with an explicit repeat mix: a cold phase serves
///                   every SLO query once (filling the bound cache),
///                   then a warm phase serves a stream in which each
///                   entry repeats an earlier query with probability
///                   ~0.5 (the realized repeat ratio is reported — a
///                   cache-hit rate is meaningless without it). Warm
///                   hit rate and lookup counts come from the
///                   otged_bound_cache_{hits,misses}_total counter
///                   deltas across the warm phase. Reports QPS and
///                   p50/p95/p99 latency over both phases and persists
///                   the run as `BENCH_search.json` (schema in
///                   src/telemetry/bench_report.hpp), the
///                   perf-trajectory record re-anchors diff across
///                   commits.
///
/// The default corpus is 2,000 generator-seeded graphs (1,960 random
/// power-law + 5 perturbed variants of each of the 8 queries), all
/// deterministic in the seed.
///
/// Flags: --smoke  shrink corpus/query counts for CI smoke runs (the
///                 batching and warm-cache speedups then print without a
///                 PASS/FAIL verdict: they would time a few ms of work)
///        --out P  write the bench report to P (default BENCH_search.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "search/query_engine.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/metrics.hpp"

using namespace otged;

namespace {

int ExactGed(const Graph& a, const Graph& b) {
  auto [g1, g2] = OrderBySize(a, b);
  BnbOptions opt;
  opt.initial_upper_bound = ClassicGed(*g1, *g2).ged;
  return BranchAndBoundGed(*g1, *g2, opt).ged;
}

GraphStore PowerLawStore(int count, Rng* rng) {
  GraphStore store;
  for (int i = 0; i < count; ++i)
    store.Insert(PowerLawGraph(rng->UniformInt(10, 32), rng->UniformInt(1, 3),
                            rng));
  return store;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_search.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc)
      out_path = argv[++a];
  }
  const int corpus_n = smoke ? 40 : 1960;
  const int num_queries = smoke ? 4 : 8;
  const int variants_per_query = smoke ? 2 : 5;
  const int slo_queries = smoke ? 4 : 16;
  const int warm_stream_n = smoke ? 8 : 32;

  // ---------------------------------------------------------- 1. pruning
  Rng rng(7);
  std::vector<Graph> queries;
  for (int q = 0; q < num_queries; ++q)
    queries.push_back(PowerLawGraph(rng.UniformInt(12, 28), 2, &rng));
  // Corpus: random power-law graphs plus a few perturbed variants of each
  // query, so range queries have true neighbors to find.
  GraphStore store = PowerLawStore(corpus_n, &rng);
  for (const Graph& q : queries) {
    for (int v = 0; v < variants_per_query; ++v) {
      SyntheticEditOptions sopt;
      sopt.num_edits = 1 + v;
      sopt.allow_relabel = false;
      store.Insert(SyntheticEditPair(q, sopt, &rng).g2);
    }
  }

  EngineOptions opt;
  opt.cascade.exact_budget = 200'000;
  QueryEngine engine(&store, opt);

  const int tau = 4;
  std::printf("== pruning: %d range queries (tau=%d) over %d power-law "
              "graphs ==\n",
              static_cast<int>(queries.size()), tau, store.Size());
  CascadeStats total;
  for (const RangeResult& res : engine.RangeBatch(queries, tau))
    total.Merge(res.stats.cascade);
  std::printf(
      "  %ld candidate pairs: %ld index-pruned, %ld invariant-pruned, "
      "%ld branch-pruned, %ld heuristic-decided, "
      "%ld exact-decided (%ld kept unproven on budget exhaustion)\n",
      total.candidates, total.pruned_index, total.pruned_invariant,
      total.pruned_branch, total.decided_heuristic, total.decided_exact,
      total.exact_incomplete);
  double pruned = total.PrunedBeforeSolvers();
  std::printf("  pruned before any upper-bound/exact solver: %.1f%%  [%s]\n\n",
              100.0 * pruned, pruned >= 0.5 ? "PASS >=50%" : "FAIL <50%");

  // ------------------------------------------------------ 2. correctness
  Rng crng(21);
  GraphStore small;
  for (int i = 0; i < 60; ++i) small.Insert(AidsLikeGraph(&crng, 4, 9));
  QueryEngine verifier(&small, {});
  long checked = 0, mismatched = 0;
  for (int q = 0; q < 4; ++q) {
    Graph query = AidsLikeGraph(&crng, 4, 9);
    for (int t : {1, 2, 3}) {
      RangeResult res = verifier.Range(query, t);
      std::vector<int> got;
      for (const RangeHit& h : res.hits) got.push_back(h.id);
      std::vector<int> expected;
      for (int id = 0; id < small.Size(); ++id)
        if (ExactGed(query, small.graph(id)) <= t) expected.push_back(id);
      checked += small.Size();
      if (got != expected) ++mismatched;
    }
  }
  std::printf("== correctness: %ld brute-force-verified pairs, %ld "
              "mismatched query results  [%s] ==\n\n",
              checked, mismatched, mismatched == 0 ? "PASS" : "FAIL");

  // ------------------------------------------------------- 3. throughput
  std::printf("== throughput: same corpus, range tau=%d ==\n", tau);
  for (int threads : {1, 2, 4}) {
    EngineOptions topt = opt;
    topt.num_threads = threads;
    QueryEngine te(&store, topt);
    auto start = std::chrono::steady_clock::now();
    std::vector<RangeResult> results = te.RangeBatch(queries, tau);
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    long hits = 0;
    for (const RangeResult& r : results) hits += r.hits.size();
    std::printf("  %d thread(s): %6.2f queries/s  (%zu queries, %ld hits, "
                "%.2f s)\n",
                threads, static_cast<double>(queries.size()) / sec,
                queries.size(), hits, sec);
  }

  // -------------------------------------------- 4. batch amortization
  // One flattened (query x candidate) pool pass vs sequential per-query
  // passes: the batch overlaps one query's straggler pairs with other
  // queries' work instead of idling workers at per-query barriers. Fresh
  // engines per run keep the bound cache cold so only batching differs.
  std::printf("\n== batch amortization: %zu range queries, tau=%d, 4 "
              "threads ==\n",
              queries.size(), tau);
  {
    EngineOptions bopt = opt;
    bopt.num_threads = 4;
    auto time_run = [&](auto&& serve) {
      auto start = std::chrono::steady_clock::now();
      serve();
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    QueryEngine seq_engine(&store, bopt);
    double seq_s = time_run([&] {
      for (const Graph& q : queries) seq_engine.Range(q, tau);
    });
    QueryEngine batch_engine(&store, bopt);
    double batch_s =
        time_run([&] { batch_engine.RangeBatch(queries, tau); });
    // At smoke size each phase takes a few ms, so this comparison and
    // the warm-cache one below read timer noise: no verdict there.
    std::printf("  sequential: %.3f s | batched: %.3f s | speedup %.2fx%s\n",
                seq_s, batch_s, seq_s / batch_s,
                smoke              ? ""
                : batch_s < seq_s ? "  [PASS batched faster]"
                                   : "  [FAIL]");
  }

  // ------------------------------------------------- 5. warm bound cache
  std::printf("\n== warm cache: same %zu queries twice on one engine ==\n",
              queries.size());
  {
    EngineOptions wopt = opt;
    wopt.num_threads = 4;
    QueryEngine engine2(&store, wopt);
    double pass_sec[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      auto start = std::chrono::steady_clock::now();
      std::vector<RangeResult> results = engine2.RangeBatch(queries, tau);
      pass_sec[pass] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      CascadeStats pass_total;
      for (const RangeResult& r : results)
        pass_total.Merge(r.stats.cascade);
      std::printf("  pass %d: %.3f s | %ld cache hits / %ld candidates | "
                  "%ld exact calls | %zu pairs cached\n",
                  pass, pass_sec[pass], pass_total.cache_hits,
                  pass_total.candidates, pass_total.exact_calls,
                  engine2.CacheSize());
    }
    std::printf("  warm speedup: %.2fx%s\n", pass_sec[0] / pass_sec[1],
                smoke                      ? ""
                : pass_sec[1] < pass_sec[0] ? "  [PASS warm faster]"
                                            : "  [FAIL]");
  }

  // ------------------------------------------------ 6. SLO / perf record
  // Per-query latency distribution under a serving loop with an
  // explicit repeat mix. A cache-hit rate is only meaningful relative
  // to how often the workload actually repeats a query, so the warm
  // phase draws a stream in which each entry is, with probability
  // ~0.5, a verbatim repeat of an already-served query (fresh
  // otherwise), and both the realized repeat ratio and the bound-cache
  // hit rate measured across exactly that phase (via the
  // otged_bound_cache_{hits,misses}_total counter deltas) go into the
  // record. Each query's own wall_ms is a latency sample; QPS is
  // measured over both phases. The run is persisted as a BENCH_*.json
  // record so the perf trajectory accumulates in git history.
  std::printf("\n== SLO: %d cold + %d warm (repeat-mix) range queries, "
              "tau=%d, 4 threads ==\n",
              slo_queries, warm_stream_n, tau);
  {
    Rng srng(97);
    std::vector<Graph> served;  // pool of queries already seen once
    for (int q = 0; q < slo_queries; ++q)
      served.push_back(PowerLawGraph(srng.UniformInt(12, 28), 2, &srng));
    EngineOptions sopt = opt;
    sopt.num_threads = 4;
    QueryEngine slo_engine(&store, sopt);
    std::vector<double> latencies_ms;
    CascadeStats slo_total;
    auto start = std::chrono::steady_clock::now();
    // Cold phase: every query served once, filling the bound cache.
    for (const Graph& q : served) {
      RangeResult res = slo_engine.Range(q, tau);
      latencies_ms.push_back(res.stats.wall_ms);
      slo_total.Merge(res.stats.cascade);
    }
    // Warm phase: repeat an earlier query with probability 1/2.
    const auto before = telemetry::Registry().Snapshot();
    int repeats = 0;
    for (int i = 0; i < warm_stream_n; ++i) {
      Graph q;
      if (srng.UniformInt(0, 1) == 0) {
        ++repeats;
        q = served[static_cast<size_t>(
            srng.UniformInt(0, static_cast<int>(served.size()) - 1))];
      } else {
        q = PowerLawGraph(srng.UniformInt(12, 28), 2, &srng);
        served.push_back(q);
      }
      RangeResult res = slo_engine.Range(q, tau);
      latencies_ms.push_back(res.stats.wall_ms);
      slo_total.Merge(res.stats.cascade);
    }
    const auto after = telemetry::Registry().Snapshot();
    const long warm_hits =
        after.CounterValue("otged_bound_cache_hits_total") -
        before.CounterValue("otged_bound_cache_hits_total");
    const long warm_misses =
        after.CounterValue("otged_bound_cache_misses_total") -
        before.CounterValue("otged_bound_cache_misses_total");
    const long warm_lookups = warm_hits + warm_misses;
    double sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();

    telemetry::BenchReport report;
    report.bench = "bench_search_throughput";
    report.threads = 4;
    report.corpus_size = store.Size();
    report.num_queries = static_cast<int>(latencies_ms.size());
    report.qps = static_cast<double>(latencies_ms.size()) / sec;
    report.p50_ms = telemetry::PercentileOf(latencies_ms, 0.50);
    report.p95_ms = telemetry::PercentileOf(latencies_ms, 0.95);
    report.p99_ms = telemetry::PercentileOf(latencies_ms, 0.99);
    const double cand = static_cast<double>(
        slo_total.candidates > 0 ? slo_total.candidates : 1);
    report.tier_fractions[0] =
        static_cast<double>(slo_total.pruned_invariant +
                            slo_total.passed_invariant) /
        cand;
    report.tier_fractions[1] =
        static_cast<double>(slo_total.pruned_branch) / cand;
    report.tier_fractions[2] =
        static_cast<double>(slo_total.decided_heuristic) / cand;
    report.tier_fractions[3] =
        static_cast<double>(slo_total.decided_exact) / cand;
    report.tier_fractions[4] = static_cast<double>(slo_total.cache_hits) / cand;
    report.tier_fractions[5] =
        static_cast<double>(slo_total.pruned_index) / cand;
    report.cache_hit_rate = static_cast<double>(slo_total.cache_hits) / cand;
    report.has_cache = true;
    report.cache_repeat_ratio =
        static_cast<double>(repeats) / static_cast<double>(warm_stream_n);
    report.cache_warm_hit_rate =
        warm_lookups > 0
            ? static_cast<double>(warm_hits) / static_cast<double>(warm_lookups)
            : 0.0;
    report.cache_warm_lookups = warm_lookups;

    std::printf("  %.2f queries/s | latency p50 %.2f ms, p95 %.2f ms, "
                "p99 %.2f ms\n",
                report.qps, report.p50_ms, report.p95_ms, report.p99_ms);
    std::printf("  warm phase: repeat ratio %.2f | %ld cache lookups, "
                "hit rate %.1f%%  [%s]\n",
                report.cache_repeat_ratio, warm_lookups,
                100.0 * report.cache_warm_hit_rate,
                report.cache_warm_hit_rate > 0.05
                    ? "PASS warm hits"
                    : "WARN warm hit rate low");
    std::string error;
    if (!telemetry::WriteBenchJson(report, out_path, &error)) {
      std::printf("  FAILED to write %s: %s\n", out_path.c_str(),
                  error.c_str());
      return 1;
    }
    std::printf("  perf record written to %s\n", out_path.c_str());
  }
  return 0;
}
