#include "heuristics/bipartite.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "assignment/hungarian.hpp"
#include "assignment/lapjv.hpp"

namespace otged {

namespace {

// Every node's neighbour labels, sorted, in one flat array: node v's list
// is labels[offset[v] .. offset[v + 1]).
struct NeighborLabels {
  std::vector<Label> labels;
  std::vector<int> offset;
};

NeighborLabels SortedNeighborLabels(const Graph& g) {
  NeighborLabels nl;
  nl.labels.reserve(2 * static_cast<size_t>(g.NumEdges()));
  nl.offset.reserve(static_cast<size_t>(g.NumNodes()) + 1);
  nl.offset.push_back(0);
  for (int v = 0; v < g.NumNodes(); ++v) {
    for (int w : g.Neighbors(v)) nl.labels.push_back(g.label(w));
    std::sort(nl.labels.begin() + nl.offset.back(), nl.labels.end());
    nl.offset.push_back(static_cast<int>(nl.labels.size()));
  }
  return nl;
}

// Multiset difference size between the neighbor-label multisets of u in g1
// and v in g2, by one merge walk over their sorted lists: a lower bound
// on incident-edge substitutions.
int NeighborLabelDiff(const NeighborLabels& n1, int u, const NeighborLabels& n2,
                      int v) {
  int i = n1.offset[u], j = n2.offset[v];
  const int i_end = n1.offset[u + 1], j_end = n2.offset[v + 1];
  int surplus = 0, deficit = 0;  // unmatched labels of u's / v's list
  while (i < i_end && j < j_end) {
    if (n1.labels[i] == n2.labels[j]) {
      ++i;
      ++j;
    } else if (n1.labels[i] < n2.labels[j]) {
      ++surplus;
      ++i;
    } else {
      ++deficit;
      ++j;
    }
  }
  surplus += i_end - i;
  deficit += j_end - j;
  return std::max(surplus, deficit);
}

// Repairs a square BP assignment into a total injective G1 -> G2 matching:
// G1 nodes assigned to deletion columns are re-paired with G2 nodes
// assigned to insertion rows (label-matching pairs first).
NodeMatching RepairMatching(const Graph& g1, const Graph& g2,
                            const std::vector<int>& row_to_col) {
  const int n1 = g1.NumNodes(), n2 = g2.NumNodes();
  NodeMatching match(n1, -1);
  std::vector<char> used(n2, 0);
  std::vector<int> deleted;  // G1 nodes sent to the deletion block
  for (int i = 0; i < n1; ++i) {
    int j = row_to_col[i];
    if (j < n2) {
      match[i] = j;
      used[j] = 1;
    } else {
      deleted.push_back(i);
    }
  }
  std::vector<int> inserted;  // G2 nodes with no substitution partner
  for (int j = 0; j < n2; ++j)
    if (!used[j]) inserted.push_back(j);
  OTGED_CHECK(deleted.size() <= inserted.size());
  // Pair label-equal (node, slot) combinations first.
  std::vector<char> slot_used(inserted.size(), 0);
  for (int u : deleted) {
    int pick = -1;
    for (size_t s = 0; s < inserted.size(); ++s) {
      if (slot_used[s]) continue;
      if (g2.label(inserted[s]) == g1.label(u)) {
        pick = static_cast<int>(s);
        break;
      }
      if (pick == -1) pick = static_cast<int>(s);
    }
    OTGED_CHECK(pick >= 0);
    slot_used[pick] = 1;
    match[u] = inserted[pick];
  }
  return match;
}

// The edit path of a repaired BP assignment.
HeuristicResult FromAssignment(const Graph& g1, const Graph& g2,
                               const AssignmentResult& lap) {
  HeuristicResult res;
  res.matching = RepairMatching(g1, g2, lap.row_to_col);
  res.path = EditPathFromMatching(g1, g2, res.matching);
  res.ged = static_cast<int>(res.path.size());
  return res;
}

AssignmentResult VjAssignment(const Graph& g1, const Graph& g2) {
  return SolveAssignmentJV(
      BipartiteCostMatrix(g1, g2, /*use_neighbor_labels=*/true));
}

}  // namespace

Matrix BipartiteCostMatrix(const Graph& g1, const Graph& g2,
                           bool use_neighbor_labels) {
  const int n1 = g1.NumNodes(), n2 = g2.NumNodes();
  const int n = n1 + n2;
  Matrix c(n, n, 0.0);
  const NeighborLabels nl1 =
      use_neighbor_labels ? SortedNeighborLabels(g1) : NeighborLabels{};
  const NeighborLabels nl2 =
      use_neighbor_labels ? SortedNeighborLabels(g2) : NeighborLabels{};
  for (int i = 0; i < n1; ++i) {
    for (int j = 0; j < n2; ++j) {
      double sub = g1.label(i) != g2.label(j) ? 1.0 : 0.0;
      if (use_neighbor_labels) {
        sub += NeighborLabelDiff(nl1, i, nl2, j) / 2.0;
      } else {
        sub += std::abs(g1.Degree(i) - g2.Degree(j)) / 2.0;
      }
      c(i, j) = sub;
    }
  }
  // Deletion block (G1 node i -> eps): diagonal finite, rest forbidden.
  for (int i = 0; i < n1; ++i)
    for (int j = 0; j < n1; ++j)
      c(i, n2 + j) = (i == j) ? 1.0 + g1.Degree(i) / 2.0 : kAssignInf;
  // Insertion block (eps -> G2 node j).
  for (int i = 0; i < n2; ++i)
    for (int j = 0; j < n2; ++j)
      c(n1 + i, j) = (i == j) ? 1.0 + g2.Degree(j) / 2.0 : kAssignInf;
  // eps -> eps block stays 0.
  return c;
}

HeuristicResult HungarianGed(const Graph& g1, const Graph& g2) {
  OTGED_CHECK(g1.NumNodes() <= g2.NumNodes());
  return FromAssignment(
      g1, g2,
      SolveAssignment(
          BipartiteCostMatrix(g1, g2, /*use_neighbor_labels=*/false)));
}

HeuristicResult VjGed(const Graph& g1, const Graph& g2) {
  OTGED_CHECK(g1.NumNodes() <= g2.NumNodes());
  return FromAssignment(g1, g2, VjAssignment(g1, g2));
}

HeuristicResult ClassicGed(const Graph& g1, const Graph& g2) {
  HeuristicResult a = HungarianGed(g1, g2);
  HeuristicResult b = VjGed(g1, g2);
  return a.ged <= b.ged ? a : b;
}

int ClassicGedFromHungarian(const Graph& g1, const Graph& g2,
                            const AssignmentResult& hungarian) {
  OTGED_CHECK(g1.NumNodes() <= g2.NumNodes());
  const int h = EditCostFromMatching(
      g1, g2, RepairMatching(g1, g2, hungarian.row_to_col));
  const int v = EditCostFromMatching(
      g1, g2, RepairMatching(g1, g2, VjAssignment(g1, g2).row_to_col));
  return std::min(h, v);
}

}  // namespace otged
