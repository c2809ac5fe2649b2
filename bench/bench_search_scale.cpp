/// \file bench_search_scale.cpp
/// \brief Scale benchmark for the multi-level candidate index.
///
/// Answers one question: does the GraphIndex make candidate generation
/// sublinear on a corpus two orders of magnitude past the throughput
/// bench, without changing a single answer? Five sections:
///
///   1. BUILD      — generate a deterministic 100k+ labeled corpus
///                   (AIDS-like molecule graphs plus perturbed variants
///                   of every query seed, so queries have true
///                   neighbors) and time the index build.
///   2. CANDIDATES — sampled range queries at realistic tau; reports
///                   the candidate fraction (index candidates / corpus)
///                   and the per-level prune split.
///                   GATE: candidate fraction < 5%.
///   3. VERIFY     — 100 sampled queries (97 range reads plus 3 k=1
///                   top-k reads) served by the indexed engine and
///                   re-served by an engine with `use_index = false` (a
///                   full linear scan over the same snapshot); hit lists
///                   must match byte for byte (id, distance, exactness,
///                   lower bound). GATE: zero mismatches.
///   4. CHURN      — bulk inserts plus random erases against the same
///                   store; the incrementally advanced index is
///                   re-verified against the linear scan.
///                   GATE: zero mismatches.
///                   Then a streamed churn: cycles of 2 inserts + 2
///                   erases + 1 range read, each read checked against
///                   the linear scan; prints the p50 of each insert,
///                   erase and index view advance.
///                   GATE: zero mismatches.
///                   Then a top-k check: k=10 reads, perturbations of
///                   query seeds and fresh graphs that perturb no stored
///                   graph, each checked against the linear scan and
///                   timed per read.
///                   GATE: zero mismatches.
///   5. RECORD     — QPS and p50/p95/p99 latency over the indexed
///                   serving sections, persisted as `BENCH_scale.json`
///                   (schema in src/telemetry/bench_report.hpp, with
///                   the optional "index" and "churn" sections).
///
/// Every gate failure flips the exit code to 1; CI runs `--smoke`.
///
/// Flags: --smoke  shrink the corpus (~3k) and query counts for CI
///        --out P  write the bench report to P (default BENCH_scale.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "graph/generator.hpp"
#include "search/query_engine.hpp"
#include "telemetry/bench_report.hpp"

using namespace otged;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameHits(const std::vector<SearchHit>& a,
              const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].ged != b[i].ged ||
        a[i].exact_distance != b[i].exact_distance || a[i].lb != b[i].lb)
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress visible when piped
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc)
      out_path = argv[++a];
  }
  const int corpus_n = smoke ? 3'000 : 100'000;
  const int num_seeds = smoke ? 24 : 100;     // query seeds with variants
  const int variants_per_seed = 12;           // guarantees top-k neighbors
  const int fraction_queries = smoke ? 24 : 200;
  // The verify and churn sections keep the query mix of earlier records
  // (320 queries at full size), so their headline stays comparable; the
  // k=10 top-k check runs after them and stays out of the record.
  const int verify_range = smoke ? 16 : 97;
  const int verify_topk = smoke ? 4 : 3;
  const int churn_n = smoke ? 200 : 2'000;
  const int churn_verify = smoke ? 6 : 20;
  const int stream_cycles = smoke ? 30 : 300;
  const int topk_near = smoke ? 2 : 4;  // perturbations of query seeds
  const int topk_far = smoke ? 1 : 2;   // fresh graphs, no stored source
  const int tau = 2;
  const int k = 1;
  const int deep_k = 10;
  bool failed = false;

  // ------------------------------------------------------------ 1. build
  Rng rng(20250807);
  std::vector<Graph> corpus;
  corpus.reserve(static_cast<size_t>(corpus_n) +
                 static_cast<size_t>(num_seeds) * variants_per_seed);
  for (int i = 0; i < corpus_n; ++i)
    corpus.push_back(AidsLikeGraph(&rng, 6, 14));
  // Query seeds are corpus-like graphs; their perturbed variants go into
  // the corpus so range queries have true hits and top-k has close
  // neighbors (keeping the exact phase cheap and realistic).
  std::vector<Graph> seeds;
  for (int s = 0; s < num_seeds; ++s) {
    seeds.push_back(AidsLikeGraph(&rng, 6, 14));
    for (int v = 0; v < variants_per_seed; ++v) {
      SyntheticEditOptions sopt;
      sopt.num_edits = 1 + v % 3;
      sopt.num_labels = 29;
      corpus.push_back(SyntheticEditPair(seeds.back(), sopt, &rng).g2);
    }
  }
  GraphStore store;
  auto t0 = std::chrono::steady_clock::now();
  store.AddAll(corpus);
  const double ingest_s = Seconds(t0);

  EngineOptions iopt;
  iopt.num_threads = 4;
  // Identical budgets on both engines keep the byte-identical comparison
  // meaningful; the cap keeps a rare hard pair from burning minutes in
  // the exact tier (such pairs are kept conservatively, on both sides).
  iopt.cascade.exact_budget = 50'000;
  QueryEngine indexed(&store, iopt);
  EngineOptions bopt = iopt;
  bopt.use_index = false;
  QueryEngine brute(&store, bopt);

  // The first query builds the index; time it through a throwaway call.
  t0 = std::chrono::steady_clock::now();
  indexed.Range(seeds[0], 0);
  const double build_s = Seconds(t0);
  std::printf("== build: %d graphs ingested in %.2f s, index built in "
              "%.2f s ==\n\n",
              store.Size(), ingest_s, build_s);

  // ----------------------------------------- 2. candidate fraction gate
  // Queries are fresh perturbations of known seeds — near misses, the
  // regime where a threshold query is actually useful.
  std::vector<Graph> fraction_set;
  for (int q = 0; q < fraction_queries; ++q) {
    SyntheticEditOptions sopt;
    sopt.num_edits = 1 + q % 2;
    sopt.num_labels = 29;
    fraction_set.push_back(
        SyntheticEditPair(seeds[static_cast<size_t>(q) % seeds.size()],
                          sopt, &rng)
            .g2);
  }
  IndexStats frac_total;
  CascadeStats cascade_total;
  std::vector<double> latencies_ms;
  t0 = std::chrono::steady_clock::now();
  for (const Graph& q : fraction_set) {
    RangeResult res = indexed.Range(q, tau);
    frac_total.Merge(res.stats.index);
    cascade_total.Merge(res.stats.cascade);
    latencies_ms.push_back(res.stats.wall_ms);
  }
  double serving_s = Seconds(t0);
  const double scanned = static_cast<double>(
      frac_total.scanned > 0 ? frac_total.scanned : 1);
  const double cand_fraction =
      static_cast<double>(frac_total.candidates) / scanned;
  std::printf("== candidates: %d range queries, tau=%d ==\n",
              fraction_queries, tau);
  std::printf("  %ld of %ld (query, graph) pairs survived the index "
              "(%.2f%%)\n",
              frac_total.candidates, frac_total.scanned,
              100.0 * cand_fraction);
  std::printf("  pruned: %.1f%% partition, %.1f%% label | "
              "%ld of %ld partitions opened\n",
              100.0 * static_cast<double>(frac_total.partition_pruned) /
                  scanned,
              100.0 * static_cast<double>(frac_total.label_pruned) / scanned,
              frac_total.partitions_opened, frac_total.partitions_seen);
  const bool frac_ok = cand_fraction < 0.05;
  std::printf("  candidate fraction %.2f%%  [%s]\n\n",
              100.0 * cand_fraction,
              frac_ok ? "PASS <5%" : "FAIL >=5%");
  failed = failed || !frac_ok;

  // ------------------------------------- 3. brute-force verification
  // Each sampled query runs on the indexed engine and again on a
  // `use_index = false` engine over the same store; answers must match
  // byte for byte.
  std::printf("== verify: %d range + %d top-k queries vs full linear "
              "scan ==\n",
              verify_range, verify_topk);
  long mismatched = 0;
  t0 = std::chrono::steady_clock::now();
  for (int q = 0; q < verify_range; ++q) {
    SyntheticEditOptions sopt;
    sopt.num_edits = 1 + q % 3;
    sopt.num_labels = 29;
    const Graph query =
        SyntheticEditPair(seeds[static_cast<size_t>(q) % seeds.size()],
                          sopt, &rng)
            .g2;
    auto tq = std::chrono::steady_clock::now();
    RangeResult got = indexed.Range(query, tau);
    const double idx_s = Seconds(tq);
    latencies_ms.push_back(got.stats.wall_ms);
    cascade_total.Merge(got.stats.cascade);
    frac_total.Merge(got.stats.index);
    tq = std::chrono::steady_clock::now();
    RangeResult expected = brute.Range(query, tau);
    std::printf("  [range %2d] indexed %.2f s, brute %.2f s, %zu hits\n", q,
                idx_s, Seconds(tq), got.hits.size());
    if (!SameHits(got.hits, expected.hits)) ++mismatched;
  }
  for (int q = 0; q < verify_topk; ++q) {
    SyntheticEditOptions sopt;
    sopt.num_edits = 1;
    sopt.num_labels = 29;
    const Graph query =
        SyntheticEditPair(seeds[static_cast<size_t>(q) % seeds.size()],
                          sopt, &rng)
            .g2;
    auto tq = std::chrono::steady_clock::now();
    TopKResult got = indexed.TopK(query, k);
    const double idx_s = Seconds(tq);
    latencies_ms.push_back(got.stats.wall_ms);
    cascade_total.Merge(got.stats.cascade);
    frac_total.Merge(got.stats.index);
    tq = std::chrono::steady_clock::now();
    TopKResult expected = brute.TopK(query, k);
    std::printf(
        "  [topk  %2d] indexed %.2f s, brute %.2f s, %ld cascade-evaluated\n",
        q, idx_s, Seconds(tq),
        got.stats.cascade.candidates - got.stats.cascade.pruned_index -
            got.stats.cascade.pruned_invariant);
    if (!SameHits(got.hits, expected.hits)) ++mismatched;
  }
  serving_s += Seconds(t0);
  std::printf("  %d queries checked, %ld mismatched  [%s]\n\n",
              verify_range + verify_topk, mismatched,
              mismatched == 0 ? "PASS byte-identical" : "FAIL");
  failed = failed || mismatched != 0;

  // ------------------------------------------------- 4. mutation churn
  // Bulk insert + random erases; the index advances incrementally and
  // must still agree with the linear scan.
  std::printf("== churn: +%d inserts, -%d erases, then %d re-verified "
              "queries ==\n",
              churn_n, churn_n, churn_verify);
  {
    std::vector<Graph> fresh;
    for (int i = 0; i < churn_n; ++i)
      fresh.push_back(AidsLikeGraph(&rng, 6, 14));
    store.AddAll(fresh);
    int erased = 0;
    while (erased < churn_n) {
      if (store.Erase(rng.UniformInt(0, store.NextId() - 1))) ++erased;
    }
  }
  long churn_mismatched = 0;
  t0 = std::chrono::steady_clock::now();
  for (int q = 0; q < churn_verify; ++q) {
    SyntheticEditOptions sopt;
    sopt.num_edits = 1 + q % 3;
    sopt.num_labels = 29;
    const Graph query =
        SyntheticEditPair(seeds[static_cast<size_t>(q) % seeds.size()],
                          sopt, &rng)
            .g2;
    RangeResult got = indexed.Range(query, tau);
    latencies_ms.push_back(got.stats.wall_ms);
    cascade_total.Merge(got.stats.cascade);
    frac_total.Merge(got.stats.index);
    RangeResult expected = brute.Range(query, tau);
    if (!SameHits(got.hits, expected.hits)) ++churn_mismatched;
  }
  serving_s += Seconds(t0);
  std::printf("  store now %d graphs | %d queries checked, %ld "
              "mismatched  [%s]\n\n",
              store.Size(), churn_verify, churn_mismatched,
              churn_mismatched == 0 ? "PASS byte-identical" : "FAIL");
  failed = failed || churn_mismatched != 0;

  // Streamed churn: the write pattern of a serving store, timed per
  // operation. The view is advanced explicitly so the range read that
  // follows finds it current; these reads stay out of the record's
  // serving latencies.
  std::printf("== streamed churn: %d cycles of 2 inserts + 2 erases + 1 "
              "range read ==\n",
              stream_cycles);
  std::vector<double> insert_ms, erase_ms, view_ms;
  long stream_mismatched = 0;
  for (int c = 0; c < stream_cycles; ++c) {
    for (int w = 0; w < 2; ++w) {
      Graph g = AidsLikeGraph(&rng, 6, 14);
      const auto tw = std::chrono::steady_clock::now();
      store.Insert(std::move(g));
      insert_ms.push_back(1e3 * Seconds(tw));
    }
    for (int w = 0; w < 2; ++w) {
      auto snap = store.Snapshot();
      const int victim = snap->id(rng.UniformInt(0, snap->Size() - 1));
      const auto tw = std::chrono::steady_clock::now();
      store.Erase(victim);
      erase_ms.push_back(1e3 * Seconds(tw));
    }
    const auto tv = std::chrono::steady_clock::now();
    (void)indexed.index()->ViewFor(store.Snapshot());
    view_ms.push_back(1e3 * Seconds(tv));
    SyntheticEditOptions sopt;
    sopt.num_edits = 1 + c % 3;
    sopt.num_labels = 29;
    const Graph query =
        SyntheticEditPair(seeds[static_cast<size_t>(c) % seeds.size()],
                          sopt, &rng)
            .g2;
    RangeResult got = indexed.Range(query, tau);
    RangeResult expected = brute.Range(query, tau);
    if (!SameHits(got.hits, expected.hits)) ++stream_mismatched;
  }
  const double insert_p50 = telemetry::PercentileOf(insert_ms, 0.50);
  const double erase_p50 = telemetry::PercentileOf(erase_ms, 0.50);
  const double view_p50 = telemetry::PercentileOf(view_ms, 0.50);
  std::printf("  p50: insert %.4f ms, erase %.4f ms, index view %.4f ms\n",
              insert_p50, erase_p50, view_p50);
  std::printf("  store now %d graphs | %d reads checked, %ld mismatched  "
              "[%s]\n\n",
              store.Size(), stream_cycles, stream_mismatched,
              stream_mismatched == 0 ? "PASS byte-identical" : "FAIL");
  failed = failed || stream_mismatched != 0;

  // Top-k check: deeper reads than the record's k=1 ones, including reads
  // whose nearest graphs sit far away. Its own random stream leaves the
  // sections above unchanged.
  std::printf("== top-k check: %d near + %d far reads, k=%d, vs full "
              "linear scan ==\n",
              topk_near, topk_far, deep_k);
  Rng topk_rng(20261019);
  long topk_mismatched = 0;
  for (int q = 0; q < topk_near + topk_far; ++q) {
    const bool near = q < topk_near;
    Graph query;
    if (near) {
      SyntheticEditOptions sopt;
      sopt.num_edits = 1 + q % 3;
      sopt.num_labels = 29;
      query = SyntheticEditPair(seeds[static_cast<size_t>(q) % seeds.size()],
                                sopt, &topk_rng)
                  .g2;
    } else {
      query = AidsLikeGraph(&topk_rng, 6, 14);
    }
    auto tq = std::chrono::steady_clock::now();
    TopKResult got = indexed.TopK(query, deep_k);
    const double idx_ms = 1e3 * Seconds(tq);
    tq = std::chrono::steady_clock::now();
    TopKResult expected = brute.TopK(query, deep_k);
    const double brute_ms = 1e3 * Seconds(tq);
    const bool same = SameHits(got.hits, expected.hits);
    if (!same) ++topk_mismatched;
    std::printf("  [topk %s %d] indexed %.1f ms, brute %.1f ms, k-th at %d, "
                "%ld unproven pairs%s\n",
                near ? "near" : "far ", q, idx_ms, brute_ms,
                got.hits.empty() ? -1 : got.hits.back().lb,
                got.stats.cascade.exact_incomplete, same ? "" : "  MISMATCH");
  }
  std::printf("  %d reads checked, %ld mismatched  [%s]\n\n",
              topk_near + topk_far, topk_mismatched,
              topk_mismatched == 0 ? "PASS byte-identical" : "FAIL");
  failed = failed || topk_mismatched != 0;

  // ------------------------------------------------- 5. perf record
  telemetry::BenchReport report;
  report.bench = "bench_search_scale";
  report.threads = 4;
  report.corpus_size = store.Size();
  report.num_queries = static_cast<int>(latencies_ms.size());
  report.qps = static_cast<double>(latencies_ms.size()) / serving_s;
  report.p50_ms = telemetry::PercentileOf(latencies_ms, 0.50);
  report.p95_ms = telemetry::PercentileOf(latencies_ms, 0.95);
  report.p99_ms = telemetry::PercentileOf(latencies_ms, 0.99);
  const double cand = static_cast<double>(
      cascade_total.candidates > 0 ? cascade_total.candidates : 1);
  report.tier_fractions[0] =
      static_cast<double>(cascade_total.pruned_invariant +
                          cascade_total.passed_invariant) /
      cand;
  report.tier_fractions[1] =
      static_cast<double>(cascade_total.pruned_branch) / cand;
  report.tier_fractions[2] =
      static_cast<double>(cascade_total.decided_heuristic) / cand;
  report.tier_fractions[3] =
      static_cast<double>(cascade_total.decided_exact) / cand;
  report.tier_fractions[4] =
      static_cast<double>(cascade_total.cache_hits) / cand;
  report.tier_fractions[5] =
      static_cast<double>(cascade_total.pruned_index) / cand;
  report.cache_hit_rate =
      static_cast<double>(cascade_total.cache_hits) / cand;
  report.has_index = true;
  const double all_scanned = static_cast<double>(
      frac_total.scanned > 0 ? frac_total.scanned : 1);
  report.index_candidate_fraction =
      static_cast<double>(frac_total.candidates) / all_scanned;
  report.index_partition_prune_fraction =
      static_cast<double>(frac_total.partition_pruned) / all_scanned;
  report.index_label_prune_fraction =
      static_cast<double>(frac_total.label_pruned) / all_scanned;
  report.has_churn = true;
  report.churn_insert_ms_p50 = insert_p50;
  report.churn_erase_ms_p50 = erase_p50;
  report.churn_view_ms_p50 = view_p50;

  std::printf("== record: %.2f queries/s | latency p50 %.2f ms, p95 "
              "%.2f ms, p99 %.2f ms ==\n",
              report.qps, report.p50_ms, report.p95_ms, report.p99_ms);
  std::string error;
  if (!telemetry::WriteBenchJson(report, out_path, &error)) {
    std::printf("  FAILED to write %s: %s\n", out_path.c_str(),
                error.c_str());
    return 1;
  }
  std::printf("  perf record written to %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
