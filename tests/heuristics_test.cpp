#include "heuristics/bipartite.hpp"

#include "assignment/hungarian.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include "exact/astar.hpp"
#include "heuristics/lower_bounds.hpp"
#include "graph/generator.hpp"

namespace otged {
namespace {

TEST(BipartiteCostTest, ShapeAndBlocks) {
  Graph g1(2, 0);
  g1.AddEdge(0, 1);
  Graph g2(3, 0);
  g2.AddEdge(0, 1);
  Matrix c = BipartiteCostMatrix(g1, g2, false);
  EXPECT_EQ(c.rows(), 5);
  EXPECT_EQ(c.cols(), 5);
  // Substitution of same-label same-degree nodes costs 0.
  EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
  // Deletion diagonal: 1 + deg/2.
  EXPECT_DOUBLE_EQ(c(0, 3), 1.5);
  // Deletion off-diagonal forbidden.
  EXPECT_GE(c(0, 4), kAssignInf / 2);
  // eps-eps block free.
  EXPECT_DOUBLE_EQ(c(3, 3), 0.0);
}

/// The VJ-style substitution cost from per-cell neighbour-label maps.
double MapNeighborLabelCost(const Graph& g1, int u, const Graph& g2, int v) {
  std::map<Label, int> count;
  for (int w : g1.Neighbors(u)) count[g1.label(w)]++;
  for (int x : g2.Neighbors(v)) count[g2.label(x)]--;
  int surplus = 0, deficit = 0;
  for (const auto& [l, c] : count) {
    if (c > 0) surplus += c;
    else deficit -= c;
  }
  return (g1.label(u) != g2.label(v) ? 1.0 : 0.0) +
         std::max(surplus, deficit) / 2.0;
}

// The sorted-list merge walk prices every substitution cell exactly as
// the per-cell multiset map does, on labeled, unlabeled and empty graphs;
// the deletion/insertion blocks are the degree-based ones either way.
TEST(BipartiteCostTest, NeighborLabelCostMatchesMapReference) {
  Rng rng(31);
  int cells = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int labels = trial % 3 == 0 ? 1 : 2 + trial % 5;
    Graph g1 = trial == 0 ? Graph()
                          : RandomConnectedGraph(rng.UniformInt(1, 9),
                                                 rng.UniformInt(0, 6), labels,
                                                 &rng);
    Graph g2 = trial % 4 == 1 ? AidsLikeGraph(&rng, 2, 12)
                              : RandomConnectedGraph(rng.UniformInt(1, 12),
                                                     rng.UniformInt(0, 8),
                                                     labels, &rng);
    const int n1 = g1.NumNodes(), n2 = g2.NumNodes();
    const Matrix vj = BipartiteCostMatrix(g1, g2, true);
    const Matrix hung = BipartiteCostMatrix(g1, g2, false);
    ASSERT_EQ(vj.rows(), n1 + n2);
    for (int i = 0; i < n1; ++i)
      for (int j = 0; j < n2; ++j) {
        ASSERT_EQ(vj(i, j), MapNeighborLabelCost(g1, i, g2, j))
            << "trial " << trial << " cell " << i << "," << j;
        ++cells;
      }
    for (int i = 0; i < n1 + n2; ++i)
      for (int j = 0; j < n1 + n2; ++j)
        if (i >= n1 || j >= n2) {
          ASSERT_EQ(vj(i, j), hung(i, j));
        }
  }
  EXPECT_GT(cells, 1000);
}

class HeuristicUpperBoundTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HeuristicUpperBoundTest, AlwaysFeasibleUpperBound) {
  auto [seed, num_labels] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 15; ++trial) {
    Graph g1 = RandomConnectedGraph(rng.UniformInt(3, 6),
                                    rng.UniformInt(0, 2), num_labels, &rng);
    Graph g2 = RandomConnectedGraph(rng.UniformInt(6, 8),
                                    rng.UniformInt(0, 3), num_labels, &rng);
    auto exact = AstarGed(g1, g2);
    ASSERT_TRUE(exact.has_value());
    for (const HeuristicResult& res :
         {HungarianGed(g1, g2), VjGed(g1, g2), ClassicGed(g1, g2)}) {
      EXPECT_GE(res.ged, exact->ged);
      EXPECT_EQ(static_cast<int>(res.path.size()), res.ged);
      // The path must transform g1 into g2.
      Graph rebuilt = ApplyEditPath(g1, g2, res.matching, res.path);
      EXPECT_TRUE(rebuilt == g2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HeuristicUpperBoundTest,
    ::testing::Values(std::make_tuple(1, 29), std::make_tuple(2, 1),
                      std::make_tuple(3, 5), std::make_tuple(4, 2)));

TEST(ClassicTest, NeverWorseThanEitherMember) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 7);
    Graph g2 = AidsLikeGraph(&rng, 7, 9);
    int h = HungarianGed(g1, g2).ged;
    int v = VjGed(g1, g2).ged;
    int c = ClassicGed(g1, g2).ged;
    EXPECT_EQ(c, std::min(h, v));
  }
}

// Classic's value from a supplied Hungarian LAP (the BRANCH LAP) equals
// ClassicGed's, and that LAP's cost is BranchLowerBound, on labeled,
// unlabeled, edge-labeled and empty graphs.
TEST(ClassicTest, FromHungarianMatchesClassicGed) {
  Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    Graph g1 = trial == 0 ? Graph() : AidsLikeGraph(&rng, 1, 8);
    Graph g2 = trial % 3 == 0
                   ? RandomConnectedGraph(rng.UniformInt(1, 10),
                                          rng.UniformInt(0, 5), 1, &rng)
                   : AidsLikeGraph(&rng, 2, 10);
    if (g1.NumNodes() > g2.NumNodes()) std::swap(g1, g2);
    if (trial % 5 == 4 && !g2.Neighbors(0).empty())
      g2.set_edge_label(0, g2.Neighbors(0).front(), 2);
    const AssignmentResult lap =
        SolveAssignment(BipartiteCostMatrix(g1, g2, false));
    EXPECT_EQ(lap.cost, BranchLowerBound(g1, g2)) << "trial " << trial;
    EXPECT_EQ(ClassicGedFromHungarian(g1, g2, lap), ClassicGed(g1, g2).ged)
        << "trial " << trial;
  }
}

TEST(ClassicTest, ExactOnIdenticalGraphs) {
  Rng rng(12);
  Graph g = AidsLikeGraph(&rng, 5, 9);
  EXPECT_EQ(ClassicGed(g, g).ged, 0);
}

TEST(ClassicTest, HandlesSingleNodeGraphs) {
  Graph g1(1, 3);
  Graph g2(2, 3);
  g2.AddEdge(0, 1);
  HeuristicResult res = ClassicGed(g1, g2);
  EXPECT_EQ(res.ged, 2);  // insert node + insert edge
}

}  // namespace
}  // namespace otged
