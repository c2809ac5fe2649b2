#include "graph/graph.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace otged {

Graph::Graph(int num_nodes, Label fill_label)
    : d_(std::make_shared<Data>()) {
  d_->labels.assign(static_cast<size_t>(num_nodes), fill_label);
  d_->adj.resize(static_cast<size_t>(num_nodes));
}

Graph::Data& Graph::Mut() {
  if (!d_) {
    d_ = std::make_shared<Data>();
  } else if (d_.use_count() > 1) {
    d_ = std::make_shared<Data>(*d_);
  }
  return *d_;
}

int Graph::AddNode(Label l) {
  Data& d = Mut();
  d.labels.push_back(l);
  d.adj.emplace_back();
  return NumNodes() - 1;
}

void Graph::AddEdge(int u, int v, Label edge_label) {
  OTGED_CHECK(u >= 0 && u < NumNodes() && v >= 0 && v < NumNodes());
  OTGED_CHECK_MSG(u != v, "self loops not supported");
  OTGED_CHECK_MSG(!HasEdge(u, v), "duplicate edge");
  Data& d = Mut();
  d.adj[u].insert(std::lower_bound(d.adj[u].begin(), d.adj[u].end(), v), v);
  d.adj[v].insert(std::lower_bound(d.adj[v].begin(), d.adj[v].end(), u), u);
  if (edge_label != 0) d.edge_labels[EdgeKey(u, v)] = edge_label;
  ++d.num_edges;
}

void Graph::RemoveEdge(int u, int v) {
  OTGED_CHECK(HasEdge(u, v));
  Data& d = Mut();
  d.adj[u].erase(std::lower_bound(d.adj[u].begin(), d.adj[u].end(), v));
  d.adj[v].erase(std::lower_bound(d.adj[v].begin(), d.adj[v].end(), u));
  d.edge_labels.erase(EdgeKey(u, v));
  --d.num_edges;
}

Label Graph::edge_label(int u, int v) const {
  OTGED_DCHECK(HasEdge(u, v));
  auto it = d_->edge_labels.find(EdgeKey(u, v));
  return it == d_->edge_labels.end() ? 0 : it->second;
}

void Graph::set_edge_label(int u, int v, Label l) {
  OTGED_CHECK(HasEdge(u, v));
  if (l == 0) {
    Mut().edge_labels.erase(EdgeKey(u, v));
  } else {
    Mut().edge_labels[EdgeKey(u, v)] = l;
  }
}

std::vector<Label> Graph::EdgeLabelAlphabet() const {
  std::vector<Label> out;
  if (!d_) return out;
  for (const auto& [key, l] : d_->edge_labels) out.push_back(l);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Graph::HasEdge(int u, int v) const {
  if (u < 0 || v < 0 || u >= NumNodes() || v >= NumNodes()) return false;
  const auto& a = d_->adj[u];
  return std::binary_search(a.begin(), a.end(), v);
}

Matrix Graph::AdjacencyMatrix() const {
  const int n = NumNodes();
  Matrix a(n, n, 0.0);
  for (int u = 0; u < n; ++u)
    for (int v : d_->adj[u]) a(u, v) = 1.0;
  return a;
}

Matrix Graph::OneHotLabels(int num_labels) const {
  OTGED_CHECK(num_labels >= 1);
  const int n = NumNodes();
  Matrix x(n, num_labels, 0.0);
  for (int v = 0; v < n; ++v) {
    if (num_labels == 1) {
      x(v, 0) = 1.0;  // unlabeled: constant feature
    } else {
      OTGED_CHECK(d_->labels[v] >= 0 && d_->labels[v] < num_labels);
      x(v, d_->labels[v]) = 1.0;
    }
  }
  return x;
}

bool Graph::IsConnected() const {
  const int n = NumNodes();
  if (n <= 1) return true;
  std::vector<char> seen(n, 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int count = 1;
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    for (int v : d_->adj[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        stack.push_back(v);
      }
    }
  }
  return count == n;
}

bool Graph::CheckInvariants() const {
  int edge_endpoints = 0;
  for (int u = 0; u < NumNodes(); ++u) {
    const std::vector<int>& a = d_->adj[u];
    if (!std::is_sorted(a.begin(), a.end())) return false;
    if (std::adjacent_find(a.begin(), a.end()) != a.end()) return false;
    for (int v : a) {
      if (v < 0 || v >= NumNodes() || v == u) return false;
      if (!HasEdge(v, u)) return false;
    }
    edge_endpoints += static_cast<int>(a.size());
  }
  return edge_endpoints == 2 * NumEdges();
}

bool Graph::operator==(const Graph& o) const {
  if (d_ == o.d_) return true;
  // A graph without nodes has no edges either, whatever holds it.
  if (NumNodes() == 0 || o.NumNodes() == 0)
    return NumNodes() == o.NumNodes();
  return d_->labels == o.d_->labels && d_->adj == o.d_->adj &&
         d_->edge_labels == o.d_->edge_labels;
}

std::string Graph::ToString() const {
  std::ostringstream os;
  os << NumNodes() << " " << NumEdges() << " |";
  for (int v = 0; v < NumNodes(); ++v) os << " " << label(v);
  os << " |";
  for (int u = 0; u < NumNodes(); ++u)
    for (int v : Neighbors(u))
      if (u < v) os << " (" << u << "," << v << ")";
  return os.str();
}

int MaxEditOps(const Graph& g1, const Graph& g2) {
  return std::max(g1.NumNodes(), g2.NumNodes()) +
         std::max(g1.NumEdges(), g2.NumEdges());
}

int LabelSetLowerBound(const Graph& g1, const Graph& g2) {
  std::map<Label, int> count;
  for (int v = 0; v < g1.NumNodes(); ++v) count[g1.label(v)]++;
  for (int v = 0; v < g2.NumNodes(); ++v) count[g2.label(v)]--;
  // Multiset symmetric difference |A xor B| = sum |count|; each relabel
  // fixes two mismatched labels but each insertion fixes one, so the number
  // of node ops needed is at least max(surplus, deficit).
  int surplus = 0, deficit = 0;
  for (const auto& [l, c] : count) {
    if (c > 0) surplus += c;
    else deficit -= c;
  }
  int node_lb = std::max(surplus, deficit);
  int edge_lb = std::abs(g1.NumEdges() - g2.NumEdges());
  return node_lb + edge_lb;
}

}  // namespace otged
