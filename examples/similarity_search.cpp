/// \file similarity_search.cpp
/// \brief Graph similarity search — the workload that motivates the
/// paper's evaluation protocol. A "database" of program-dependence-style
/// graphs is searched for the nearest neighbors of a query graph. Instead
/// of a hand-rolled pairwise loop, the database is ingested into a
/// GraphStore and served by the filter–verify QueryEngine, which prunes
/// most candidates with cheap admissible bounds and verifies the rest —
/// returning *exact* distances, so the retrieved ranking is the ground
/// truth ranking by construction.
#include <cstdio>

#include "eval/metrics.hpp"
#include "search/query_engine.hpp"

using namespace otged;

int main() {
  Rng rng(7);

  // Database: 60 variants of a query graph at increasing edit distance,
  // mimicking "find functions similar to this one" over a code corpus.
  Graph query = LinuxLikeGraph(&rng, 7, 9);
  GraphStore store;
  std::vector<int> true_ged;
  for (int i = 0; i < 60; ++i) {
    SyntheticEditOptions opt;
    opt.num_edits = 1 + i % 8;  // spread of true distances
    opt.num_labels = 1;
    opt.allow_relabel = false;
    GedPair pair = SyntheticEditPair(query, opt, &rng);
    store.Insert(pair.g2);
    true_ged.push_back(pair.ged);
  }

  QueryEngine engine(&store, {});
  std::printf("serving on %d threads over %d graphs\n\n",
              engine.num_threads(), store.Size());

  // Top-10 nearest neighbors by exact GED.
  TopKResult topk = engine.TopK(query, 10);
  std::printf("Top-10 retrieved graphs (verified vs synthetic-edit GED):\n");
  for (size_t i = 0; i < topk.hits.size(); ++i) {
    const TopKHit& h = topk.hits[i];
    std::printf("  #%2zu  db[%2d]  ged %d  synthetic %d\n", i + 1, h.id,
                h.ged, true_ged[h.id]);
  }
  const CascadeStats& c = topk.stats.cascade;
  std::printf(
      "\ncascade: %ld candidates, %ld pruned by invariants, %ld by BRANCH, "
      "%ld exact calls (%.2f ms)\n",
      c.candidates, c.pruned_invariant, c.pruned_branch, c.exact_calls,
      topk.stats.wall_ms);

  // Ranking quality of the engine's exact distances against the
  // synthetic-edit ground truth over the whole database (top-k with
  // k = |DB| verifies every graph).
  TopKResult all = engine.TopK(query, store.Size());
  std::vector<double> pred, gt;
  std::vector<int> gt_int;
  for (const TopKHit& h : all.hits) {
    pred.push_back(h.ged);
    gt.push_back(true_ged[h.id]);
    gt_int.push_back(true_ged[h.id]);
  }
  std::printf("\nRanking quality over the whole database:\n");
  std::printf("  Spearman rho: %.3f\n", SpearmanRho(pred, gt));
  std::printf("  Kendall tau:  %.3f\n", KendallTau(pred, gt));
  std::printf("  p@10:         %.2f\n", PrecisionAtK(pred, gt_int, 10));
  std::printf("  p@20:         %.2f\n", PrecisionAtK(pred, gt_int, 20));
  return 0;
}
