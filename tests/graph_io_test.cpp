#include "graph/graph_io.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "graph/wl_hash.hpp"
#include "heuristics/lower_bounds.hpp"

#include "exact/astar.hpp"

namespace otged {
namespace {

TEST(GraphIoTest, RoundTripSingleGraph) {
  Rng rng(1);
  Graph g = AidsLikeGraph(&rng, 4, 9);
  AssignRandomEdgeLabels(&g, 3, &rng);
  std::stringstream ss;
  WriteGraph(ss, g);
  std::optional<Graph> back = ReadGraph(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == g);
}

TEST(GraphIoTest, CorpusRoundTripViaFile) {
  Rng rng(2);
  std::vector<Graph> graphs;
  for (int i = 0; i < 5; ++i) graphs.push_back(LinuxLikeGraph(&rng));
  std::string path = ::testing::TempDir() + "/otged_corpus.txt";
  ASSERT_TRUE(SaveGraphs(path, graphs));
  std::string error;
  std::vector<Graph> loaded = LoadGraphs(path, &error);
  ASSERT_EQ(loaded.size(), graphs.size()) << error;
  for (size_t i = 0; i < graphs.size(); ++i)
    EXPECT_TRUE(loaded[i] == graphs[i]);
}

TEST(GraphIoTest, RejectsMalformedInput) {
  std::stringstream bad("t 2 1\nv 0 0\nv 1 0\ne 0 5\n");  // edge out of range
  std::string error;
  EXPECT_FALSE(ReadGraph(bad, &error).has_value());
  EXPECT_FALSE(error.empty());

  std::stringstream dup("t 2 2\nv 0 0\nv 1 0\ne 0 1\ne 1 0\n");
  EXPECT_FALSE(ReadGraph(dup, &error).has_value());
}

TEST(GraphIoTest, EmptyStreamIsCleanEof) {
  std::stringstream empty("");
  std::string error;
  EXPECT_FALSE(ReadGraph(empty, &error).has_value());
  EXPECT_TRUE(error.empty());
}

TEST(WlHashTest, PermutationInvariant) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = AidsLikeGraph(&rng, 4, 10);
    std::vector<int> perm(g.NumNodes());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    rng.Shuffle(&perm);
    EXPECT_EQ(WlHash(g), WlHash(PermuteGraph(g, perm)));
  }
}

TEST(WlHashTest, SensitiveToEdits) {
  Rng rng(4);
  int differing = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    Graph g = AidsLikeGraph(&rng, 5, 10);
    SyntheticEditOptions opt;
    opt.num_edits = 1;
    opt.num_labels = 29;
    GedPair pair = SyntheticEditPair(g, opt, &rng);
    if (!WlEquivalent(pair.g1, pair.g2)) ++differing;
  }
  // A single edit almost always changes the WL fingerprint.
  EXPECT_GE(differing, trials - 1);
}

TEST(WlHashTest, SeesEdgeLabels) {
  Graph g1(2, 0), g2(2, 0);
  g1.AddEdge(0, 1, 1);
  g2.AddEdge(0, 1, 2);
  EXPECT_FALSE(WlEquivalent(g1, g2));
}

// Stored graph files carry each graph's WlHash, and LoadGraphStore
// refuses a file whose stored hash differs from a recomputed one, so the
// hash values themselves are a file-format contract: these literals were
// produced by earlier builds and must not change.
TEST(WlHashTest, GoldenValues) {
  EXPECT_EQ(WlHash(Graph()), 0xe220a8397b1dcdafull);
  EXPECT_EQ(WlHash(Graph(1, 0)), 0x55a0096239a7809dull);

  Graph labeled(4, 0);
  labeled.set_label(0, 3);
  labeled.set_label(2, 7);
  labeled.AddEdge(0, 1);
  labeled.AddEdge(1, 2);
  labeled.AddEdge(2, 3);
  labeled.AddEdge(3, 0);
  EXPECT_EQ(WlHash(labeled), 0x77162ee2334ae700ull);

  Graph edge_labeled(3, 1);
  edge_labeled.AddEdge(0, 1, 2);
  edge_labeled.AddEdge(1, 2, 5);
  EXPECT_EQ(WlHash(edge_labeled), 0xcec984da5d6fc6f3ull);

  Rng rng(11);
  const Graph power_law = PowerLawGraph(24, 2, &rng);
  ASSERT_EQ(power_law.NumEdges(), 45);  // the generator itself is unchanged
  EXPECT_EQ(WlHash(power_law), 0x67ca4d5653931d9bull);
  EXPECT_EQ(WlHash(power_law, 1), 0x2bedf84e01c79488ull);
}

TEST(BranchLowerBoundTest, NeverExceedsExactGed) {
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g1 = AidsLikeGraph(&rng, 3, 6);
    Graph g2 = AidsLikeGraph(&rng, 6, 8);
    auto exact = AstarGed(g1, g2);
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(BranchLowerBound(g1, g2), exact->ged + 1e-9);
    EXPECT_LE(BestLowerBound(g1, g2), exact->ged);
    EXPECT_GE(BestLowerBound(g1, g2), LabelSetLowerBound(g1, g2));
  }
}

TEST(BranchLowerBoundTest, TightOnDegreeGap) {
  // Star K1,4 vs path P5: same size, very different degree sequences; the
  // BRANCH bound sees the gap while the label-set bound is blind to it.
  Graph star(5, 0), path(5, 0);
  for (int v = 1; v < 5; ++v) star.AddEdge(0, v);
  for (int v = 0; v < 4; ++v) path.AddEdge(v, v + 1);
  EXPECT_EQ(LabelSetLowerBound(star, path), 0);
  EXPECT_GT(BestLowerBound(star, path), 0);
}

}  // namespace
}  // namespace otged
