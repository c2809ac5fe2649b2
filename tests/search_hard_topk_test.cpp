/// \file search_hard_topk_test.cpp
/// \brief Top-k on the serving benchmark's hard corpus (gedbench's
/// `hard-range-2k` recipe: 2,000 unlabeled power-law and tree-like
/// graphs). Its near-miss reads leave wide gaps between the cascade's
/// bounds, so an unthresholded exact search of every graph under some cap
/// runs out of budget and would rank a far graph by its upper bound. A
/// top-k read must instead find the read's true nearest graph and prove
/// its distance.
#include <gtest/gtest.h>

#include <vector>

#include "gedbench/src/workloads.hpp"
#include "search/query_engine.hpp"

namespace gedbench {
// Defined in workloads.cpp; the benchmark's header keeps it private.
std::vector<Op> HardReadPool();
}  // namespace gedbench

namespace otged {
namespace {

TEST(HardCorpusTopKTest, ReadFiveFindsItsSourceAtExactDistanceThree) {
  const gedbench::Workload w = gedbench::Workload::kHardRange2k;
  GraphStore store;
  store.AddAll(gedbench::MakeCorpus(w));
  const std::vector<gedbench::Op> reads = gedbench::HardReadPool();
  ASSERT_GT(reads.size(), 5u);
  const gedbench::Op& read = reads[5];
  // The read is a 3-edit perturbation of stored graph 1968.
  ASSERT_EQ(read.source_id, 1968);
  ASSERT_EQ(read.source_edits, 3);

  EngineOptions opt = gedbench::MakeEngineOptions(w);
  opt.num_threads = 2;
  opt.use_bound_cache = false;
  QueryEngine engine(&store, opt);

  // Range reads pin the answer independently: nothing lies within 2, and
  // graph 1968 is proven at distance 3.
  EXPECT_TRUE(engine.Range(read.graph, 2).hits.empty());
  bool source_at_three = false;
  for (const RangeHit& h : engine.Range(read.graph, 3).hits)
    if (h.id == 1968) source_at_three = h.ged == 3 && h.exact_distance;
  EXPECT_TRUE(source_at_three);

  const TopKResult top = engine.TopK(read.graph, 1);
  ASSERT_EQ(top.hits.size(), 1u);
  EXPECT_EQ(top.hits[0].id, 1968);
  EXPECT_EQ(top.hits[0].ged, 3);
  EXPECT_EQ(top.hits[0].lb, 3);
  EXPECT_TRUE(top.hits[0].exact_distance);
  EXPECT_EQ(top.stats.cascade.exact_incomplete, 0);
  EXPECT_EQ(top.stats.cascade.SettledTotal(), top.stats.cascade.candidates);
}

}  // namespace
}  // namespace otged
