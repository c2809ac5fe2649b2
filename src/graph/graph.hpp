/// \file graph.hpp
/// \brief Labeled undirected graph — the problem input type of otged.
#ifndef OTGED_GRAPH_GRAPH_HPP_
#define OTGED_GRAPH_GRAPH_HPP_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/matrix.hpp"

namespace otged {

/// Node label id. Unlabeled datasets (LINUX/IMDB-like) use label 0 for
/// every node; labeled datasets use ids in [0, num_labels).
using Label = int;

/// A node-labeled undirected simple graph. Nodes are dense ids
/// [0, NumNodes()). Edges are stored both as adjacency lists (sorted) and
/// are exportable as a dense adjacency matrix.
///
/// Copies share their contents until one of them is mutated
/// (copy-on-write), so a copy costs one reference count. Like any value
/// type, one Graph object must not be mutated while another thread reads
/// or copies that same object; distinct copies are independent.
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_nodes, Label fill_label = 0);

  int NumNodes() const {
    return d_ ? static_cast<int>(d_->labels.size()) : 0;
  }
  int NumEdges() const { return d_ ? d_->num_edges : 0; }

  Label label(int v) const {
    OTGED_DCHECK(v >= 0 && v < NumNodes());
    return d_->labels[v];
  }
  void set_label(int v, Label l) {
    OTGED_DCHECK(v >= 0 && v < NumNodes());
    Mut().labels[v] = l;
  }

  /// Adds an isolated node with the given label; returns its id.
  int AddNode(Label l);
  /// Adds edge {u, v} with an optional edge label (paper Appendix H.1;
  /// 0 = unlabeled). Requires u != v and the edge to be absent.
  void AddEdge(int u, int v, Label edge_label = 0);
  /// Removes edge {u, v}. Requires the edge to be present.
  void RemoveEdge(int u, int v);
  bool HasEdge(int u, int v) const;
  /// Label of edge {u, v}; requires the edge to be present.
  Label edge_label(int u, int v) const;
  void set_edge_label(int u, int v, Label l);
  /// True if any edge carries a non-zero label.
  bool HasEdgeLabels() const { return d_ && !d_->edge_labels.empty(); }
  /// Distinct edge labels in use (0 excluded); at most this many + 1
  /// classes matter for edge-label-aware GED.
  std::vector<Label> EdgeLabelAlphabet() const;
  int Degree(int v) const { return static_cast<int>(d_->adj[v].size()); }
  const std::vector<int>& Neighbors(int v) const { return d_->adj[v]; }

  /// Dense 0/1 adjacency matrix (n x n, symmetric, zero diagonal).
  Matrix AdjacencyMatrix() const;
  /// One-hot label features (n x num_labels). For unlabeled graphs
  /// (num_labels == 1) this is a constant-1 column, matching the paper's
  /// convention for unlabeled datasets.
  Matrix OneHotLabels(int num_labels) const;

  bool IsConnected() const;
  /// Structural sanity: symmetric sorted adjacency, no loops/multi-edges.
  bool CheckInvariants() const;

  /// Node-identity equality (same labels and edge set).
  bool operator==(const Graph& o) const;

  /// Compact textual form for debugging: "n m | labels | edges".
  std::string ToString() const;

 private:
  static uint64_t EdgeKey(int u, int v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
  }

  struct Data {
    std::vector<Label> labels;
    std::vector<std::vector<int>> adj;
    /// Sparse edge-label store: only non-zero labels are recorded, so
    /// node-labeled-only workloads (the paper's main setting) pay nothing.
    std::map<uint64_t, Label> edge_labels;
    int num_edges = 0;
  };

  /// The contents for writing: allocated if absent, cloned first if
  /// another Graph shares them.
  Data& Mut();

  std::shared_ptr<Data> d_;  ///< null for the empty graph
};

/// Maximum possible number of edit operations between g1 and g2
/// (the paper's GED normalizer): max(n1,n2) + max(m1,m2).
int MaxEditOps(const Graph& g1, const Graph& g2);

/// Label-set based GED lower bound, Eq. (22) of the paper:
/// |L(V1) xor L(V2)| multiset difference plus | |E1| - |E2| |.
int LabelSetLowerBound(const Graph& g1, const Graph& g2);

}  // namespace otged

#endif  // OTGED_GRAPH_GRAPH_HPP_
