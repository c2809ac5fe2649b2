#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace otged {
namespace {

Graph Triangle() {
  Graph g(3, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

TEST(GraphTest, BasicConstruction) {
  Graph g(4, 7);
  EXPECT_EQ(g.NumNodes(), 4);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_EQ(g.label(2), 7);
  g.set_label(2, 3);
  EXPECT_EQ(g.label(2), 3);
}

TEST(GraphTest, AddRemoveEdges) {
  Graph g(3);
  g.AddEdge(0, 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
  g.RemoveEdge(1, 0);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(GraphTest, AddNode) {
  Graph g(1, 5);
  int v = g.AddNode(9);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(g.label(v), 9);
  g.AddEdge(0, v);
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(GraphTest, AdjacencyMatrix) {
  Graph g = Triangle();
  Matrix a = g.AdjacencyMatrix();
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.Sum(), 6.0);  // 3 undirected edges
}

TEST(GraphTest, OneHotLabels) {
  Graph g(2, 0);
  g.set_label(1, 2);
  Matrix x = g.OneHotLabels(3);
  EXPECT_DOUBLE_EQ(x(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(x.Sum(), 2.0);
  // Unlabeled convention: single constant column.
  Matrix u = g.OneHotLabels(1);
  EXPECT_EQ(u.cols(), 1);
  EXPECT_DOUBLE_EQ(u.Sum(), 2.0);
}

TEST(GraphTest, Connectivity) {
  Graph g(3);
  g.AddEdge(0, 1);
  EXPECT_FALSE(g.IsConnected());
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.IsConnected());
  EXPECT_TRUE(Graph(1).IsConnected());
  EXPECT_TRUE(Graph(0).IsConnected());
}

TEST(GraphTest, Invariants) {
  Graph g = Triangle();
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(GraphTest, Equality) {
  EXPECT_TRUE(Triangle() == Triangle());
  Graph g = Triangle();
  g.set_label(0, 1);
  EXPECT_FALSE(g == Triangle());
}

TEST(GraphTest, CopiesAreIndependent) {
  // Copies share storage until one is mutated; every mutator must leave
  // the other copy untouched, whichever side it runs on.
  const Graph original = Triangle();
  const std::string before = original.ToString();
  Graph copy = original;
  EXPECT_TRUE(copy == original);
  copy.set_label(0, 4);
  copy.AddNode(2);
  copy.AddEdge(1, 3, 5);
  copy.RemoveEdge(0, 2);
  copy.set_edge_label(0, 1, 6);
  EXPECT_EQ(original.ToString(), before);
  EXPECT_FALSE(original.HasEdgeLabels());
  EXPECT_TRUE(original.CheckInvariants());
  EXPECT_EQ(copy.NumNodes(), 4);
  EXPECT_EQ(copy.NumEdges(), 3);
  EXPECT_EQ(copy.edge_label(1, 3), 5);
  EXPECT_TRUE(copy.CheckInvariants());

  Graph source = Triangle();
  const Graph kept = source;
  source.RemoveEdge(0, 1);
  source.set_label(2, 8);
  EXPECT_TRUE(kept == Triangle());
  EXPECT_EQ(kept.label(2), 0);

  Graph moved = Triangle();
  const Graph target = std::move(moved);
  moved = Graph();
  EXPECT_EQ(moved.NumNodes(), 0);
  EXPECT_EQ(moved.NumEdges(), 0);
  EXPECT_TRUE(moved == Graph(0));
  EXPECT_EQ(moved.AddNode(1), 0);
  EXPECT_TRUE(target == Triangle());
}

TEST(GraphTest, MaxEditOps) {
  Graph g1(2), g2 = Triangle();
  g1.AddEdge(0, 1);
  EXPECT_EQ(MaxEditOps(g1, g2), 3 + 3);
}

TEST(LabelSetLowerBoundTest, IdenticalGraphsGiveZero) {
  EXPECT_EQ(LabelSetLowerBound(Triangle(), Triangle()), 0);
}

TEST(LabelSetLowerBoundTest, CountsLabelAndEdgeGaps) {
  Graph g1(2, 0);  // labels {0, 0}, no edges
  Graph g2(3, 0);  // labels {0, 1, 1}, 2 edges
  g2.set_label(1, 1);
  g2.set_label(2, 1);
  g2.AddEdge(0, 1);
  g2.AddEdge(1, 2);
  // Node side: G1 has {0,0}, G2 has {0,1,1}: deficit 2, surplus 1 -> 2.
  // Edge side: |0 - 2| = 2.
  EXPECT_EQ(LabelSetLowerBound(g1, g2), 4);
}

TEST(LabelSetLowerBoundTest, IsSymmetric) {
  Graph g1(2, 3);
  Graph g2(4, 5);
  g2.AddEdge(0, 1);
  EXPECT_EQ(LabelSetLowerBound(g1, g2), LabelSetLowerBound(g2, g1));
}

}  // namespace
}  // namespace otged
