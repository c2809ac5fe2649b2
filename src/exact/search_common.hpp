/// \file search_common.hpp
/// \brief Internal shared machinery for the exact GED searches (A*, beam,
/// branch-and-bound): incremental cost accounting over partial node
/// mappings plus the admissible label-multiset / edge-count heuristic.
///
/// Two state representations share one Searcher:
///
///   SearchState  immutable value states for the best-first searches
///                (A*, beam), which must hold many frontier states alive
///                at once; Child copies and recomputes the heuristic.
///   DfsState     one mutable do/undo state in structure-of-arrays
///                layout (flat map1to2/map2to1, incremental label
///                remainders and edge counters) for the depth-first
///                branch-and-bound: Push/Pop are O(1) via
///                bit-parallel neighbor masks and the heuristic is O(1),
///                against the O(n + m) recompute SearchState pays per
///                Child.
///
/// The branch-and-bound generates children through one routine,
/// Searcher::RankChildren. It reads the image mask S of the expanded
/// node's mapped neighbours off the state (DfsState::anchor), then prices
/// every free G2 node with a few popcounts (O(1) per child on unlabeled
/// edges; edge-labeled pairs keep the O(deg) DeltaFast walk for the
/// delta), computes each child's f = g + delta + h straight from the
/// incremental counters without a Push, drops the children the bound
/// already prunes, and insertion-sorts the survivors as packed
/// `delta << 6 | v` keys. A child that survives the O(1) bound is then
/// checked against the anchor-aware bound (Searcher::AnchorHeuristic),
/// which prices the edges to already-mapped nodes.
///
/// Not part of the public API.
#ifndef OTGED_EXACT_SEARCH_COMMON_HPP_
#define OTGED_EXACT_SEARCH_COMMON_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <vector>

#include "editpath/edit_path.hpp"
#include "exact/astar.hpp"
#include "graph/graph.hpp"

namespace otged::internal {

/// Static context: node mapping order, compacted labels, and bitset
/// adjacency (n <= 64, checked) for the do/undo fast path.
struct SearchContext {
  const Graph& g1;
  const Graph& g2;
  int n1, n2, num_labels;
  std::vector<int> order;               // depth -> G1 node
  std::vector<int> g1_label, g2_label;  // compacted label ids
  std::vector<uint64_t> adj1_mask, adj2_mask;  // per-node neighbor bitsets
  std::vector<uint64_t> order_prefix;  // [d] = G1 nodes mapped at depth d
  uint64_t all1 = 0;          // bitmask of every G1 node
  uint64_t all2 = 0;          // bitmask of every G2 node
  bool edge_labeled = false;  // either graph carries a non-zero edge label

  SearchContext(const Graph& a, const Graph& b) : g1(a), g2(b) {
    n1 = g1.NumNodes();
    n2 = g2.NumNodes();
    OTGED_CHECK(n1 <= n2);
    OTGED_CHECK_MSG(n2 <= kMaxExactNodes,
                    "exact search supports up to 64 nodes");
    all1 = n1 == 64 ? ~0ull : (1ull << n1) - 1;
    all2 = n2 == 64 ? ~0ull : (1ull << n2) - 1;
    edge_labeled = g1.HasEdgeLabels() || g2.HasEdgeLabels();
    std::map<Label, int> remap;
    auto compact = [&](const Graph& g, std::vector<int>* out) {
      out->resize(g.NumNodes());
      for (int v = 0; v < g.NumNodes(); ++v) {
        auto [it, _] =
            remap.emplace(g.label(v), static_cast<int>(remap.size()));
        (*out)[v] = it->second;
      }
    };
    compact(g1, &g1_label);
    compact(g2, &g2_label);
    num_labels = static_cast<int>(remap.size());
    // Degree-descending mapping order tightens the edge heuristic early.
    order.resize(n1);
    for (int i = 0; i < n1; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      if (g1.Degree(x) != g1.Degree(y)) return g1.Degree(x) > g1.Degree(y);
      return x < y;
    });
    adj1_mask.assign(static_cast<size_t>(n1), 0);
    for (int u = 0; u < n1; ++u)
      for (int w : g1.Neighbors(u)) adj1_mask[u] |= 1ull << w;
    adj2_mask.assign(static_cast<size_t>(n2), 0);
    for (int v = 0; v < n2; ++v)
      for (int x : g2.Neighbors(v)) adj2_mask[v] |= 1ull << x;
    order_prefix.assign(static_cast<size_t>(n1) + 1, 0);
    for (int d = 0; d < n1; ++d)
      order_prefix[d + 1] = order_prefix[d] | (1ull << order[d]);
  }
};

/// Search state over partial mappings. `used` is a bitmask over G2 nodes,
/// which limits exact search to n2 <= 64 (ample: exact GED beyond ~16
/// nodes is intractable anyway). `map2to1` mirrors `map1to2` so the cost
/// delta never scans for a preimage.
struct SearchState {
  std::vector<int> map1to2;
  std::vector<int> map2to1;
  uint64_t used = 0;
  int depth = 0;
  int g = 0;
  int h = 0;
  int f() const { return g + h; }
};

/// Mutable depth-first state in structure-of-arrays layout. One DfsState
/// serves a whole DFS: the branch-and-bound Pushes/Pops along the
/// current path instead of copying states, and every quantity the
/// admissible heuristic needs (label remainders, remaining-edge counts)
/// is maintained incrementally. `path_v`/`path_delta` are the undo log.
struct DfsState {
  std::vector<int> map1to2;     ///< G1 node -> G2 node, -1 unmapped
  std::vector<int> map2to1;     ///< G2 node -> G1 node, -1 unmapped
  std::vector<int> c1_rem;      ///< per-label count of unmapped G1 nodes
  std::vector<int> c2_rem;      ///< per-label count of unmapped G2 nodes
  std::vector<int> path_v;      ///< depth -> chosen G2 node
  std::vector<int> path_delta;  ///< depth -> cost charged at that depth
  uint64_t used = 0;            ///< bitmask of mapped G2 nodes
  /// Unmapped G1 node u -> A(u), the images of u's mapped neighbours
  /// (entries of mapped nodes are left as they were when they mapped).
  std::vector<uint64_t> anchor;
  int depth = 0;
  int g = 0;        ///< cost of the partial mapping
  int surplus = 0;  ///< sum_l max(0, c1_rem[l] - c2_rem[l])
  int m1_rem = 0;   ///< G1 edges with at least one unmapped endpoint
  int m2_rem = 0;   ///< G2 edges with at least one unmapped endpoint
};

/// Incremental cost/heuristic evaluator shared by the searches.
class Searcher {
 public:
  Searcher(const Graph& g1, const Graph& g2) : ctx_(g1, g2) {
    c1_rem_.assign(static_cast<size_t>(ctx_.num_labels), 0);
    c2_rem_.assign(static_cast<size_t>(ctx_.num_labels), 0);
    for (int u = 0; u < ctx_.n1; ++u) c1_rem_[ctx_.g1_label[u]]++;
    for (int v = 0; v < ctx_.n2; ++v) c2_rem_[ctx_.g2_label[v]]++;
  }

  const SearchContext& ctx() const { return ctx_; }

  SearchState Root() const {
    SearchState s;
    s.map1to2.assign(static_cast<size_t>(ctx_.n1), -1);
    s.map2to1.assign(static_cast<size_t>(ctx_.n2), -1);
    s.h = Heuristic(s);
    return s;
  }

  /// True cost increment of mapping the next node (per ctx order) to v.
  int Delta(const SearchState& s, int v) const {
    int u = ctx_.order[s.depth];
    int c = ctx_.g1_label[u] != ctx_.g2_label[v] ? 1 : 0;
    for (int w : ctx_.g1.Neighbors(u)) {
      int mv = s.map1to2[w];
      if (mv < 0) continue;
      if (!ctx_.g2.HasEdge(v, mv)) {
        ++c;  // deletion
      } else if (ctx_.g1.edge_label(u, w) != ctx_.g2.edge_label(v, mv)) {
        ++c;  // edge relabel (Appendix H.1)
      }
    }
    for (int x : ctx_.g2.Neighbors(v)) {
      if (!(s.used >> x & 1)) continue;
      int pre = s.map2to1[x];
      OTGED_DCHECK(pre >= 0);
      if (!ctx_.g1.HasEdge(u, pre)) ++c;
    }
    return c;
  }

  SearchState Child(const SearchState& s, int v) const {
    SearchState t = s;
    int u = ctx_.order[s.depth];
    t.g += Delta(s, v);
    t.map1to2[u] = v;
    t.map2to1[v] = u;
    t.used |= (1ull << v);
    t.depth += 1;
    t.h = Heuristic(t);
    return t;
  }

  /// Completion cost once all G1 nodes are mapped: unmatched-node
  /// insertions plus insertions of G2 edges touching unmatched nodes.
  int CompletionCost(const SearchState& s) const {
    OTGED_DCHECK(s.depth == ctx_.n1);
    int c = ctx_.n2 - ctx_.n1;
    for (int v = 0; v < ctx_.n2; ++v) {
      if (s.used >> v & 1) continue;
      for (int x : ctx_.g2.Neighbors(v)) {
        if (x > v && !(s.used >> x & 1)) ++c;  // both endpoints unmatched
        if (s.used >> x & 1) ++c;              // one endpoint unmatched
      }
    }
    return c;
  }

  /// Admissible heuristic: label-multiset surplus + inevitable insertions
  /// + remaining-edge-count gap.
  int Heuristic(const SearchState& s) const {
    std::vector<int> c1 = c1_rem_, c2 = c2_rem_;
    for (int u = 0; u < ctx_.n1; ++u)
      if (s.map1to2[u] >= 0) {
        c1[ctx_.g1_label[u]]--;
        c2[ctx_.g2_label[s.map1to2[u]]]--;
      }
    int surplus = 0;
    for (int l = 0; l < ctx_.num_labels; ++l)
      surplus += std::max(0, c1[l] - c2[l]);
    int node_lb = surplus + (ctx_.n2 - ctx_.n1);

    int m1_rem = 0;
    for (int u = 0; u < ctx_.n1; ++u)
      for (int w : ctx_.g1.Neighbors(u))
        if (u < w && (s.map1to2[u] < 0 || s.map1to2[w] < 0)) ++m1_rem;
    int m2_rem = 0;
    for (int v = 0; v < ctx_.n2; ++v)
      for (int x : ctx_.g2.Neighbors(v))
        if (v < x && (!(s.used >> v & 1) || !(s.used >> x & 1))) ++m2_rem;
    return node_lb + std::abs(m1_rem - m2_rem);
  }

  NodeMatching ExtractMatching(const SearchState& s) const {
    NodeMatching m(static_cast<size_t>(ctx_.n1));
    for (int u = 0; u < ctx_.n1; ++u) {
      OTGED_CHECK(s.map1to2[u] >= 0);
      m[u] = s.map1to2[u];
    }
    return m;
  }

  // ---- structure-of-arrays do/undo fast path ---------------------------

  /// Root DfsState: nothing mapped, counters over the whole graphs.
  DfsState MakeDfs() const {
    DfsState s;
    s.map1to2.assign(static_cast<size_t>(ctx_.n1), -1);
    s.map2to1.assign(static_cast<size_t>(ctx_.n2), -1);
    s.c1_rem = c1_rem_;
    s.c2_rem = c2_rem_;
    s.path_v.assign(static_cast<size_t>(ctx_.n1), -1);
    s.path_delta.assign(static_cast<size_t>(ctx_.n1), 0);
    s.anchor.assign(static_cast<size_t>(ctx_.n1), 0);
    s.m1_rem = ctx_.g1.NumEdges();
    s.m2_rem = ctx_.g2.NumEdges();
    for (int l = 0; l < ctx_.num_labels; ++l)
      s.surplus += std::max(0, s.c1_rem[l] - s.c2_rem[l]);
    return s;
  }

  /// Same value as Delta, from the SoA state via bit-parallel neighbor
  /// intersection (mapped G1 nodes are exactly the order prefix). The
  /// edge-labeled delta of RankChildren; O(deg) per call.
  // otged-lint: hot-path
  int DeltaFast(const DfsState& s, int v) const {
    const int u = ctx_.order[s.depth];
    int c = ctx_.g1_label[u] != ctx_.g2_label[v] ? 1 : 0;
    for (uint64_t m = ctx_.adj1_mask[u] & ctx_.order_prefix[s.depth];
         m != 0; m &= m - 1) {
      const int w = std::countr_zero(m);
      const int mv = s.map1to2[w];
      OTGED_DCHECK(mv >= 0);
      if (!(ctx_.adj2_mask[mv] >> v & 1)) {
        ++c;  // deletion
      } else if (ctx_.g1.edge_label(u, w) != ctx_.g2.edge_label(v, mv)) {
        ++c;  // edge relabel (Appendix H.1)
      }
    }
    for (uint64_t m = ctx_.adj2_mask[v] & s.used; m != 0; m &= m - 1) {
      const int x = std::countr_zero(m);
      const int pre = s.map2to1[x];
      OTGED_DCHECK(pre >= 0);
      if (!(ctx_.adj1_mask[u] >> pre & 1)) ++c;  // insertion
    }
    return c;
  }

  /// Maps order[depth] -> v, charging `delta` (the Delta of v) and
  /// updating every incremental counter in O(1), and v into the anchor
  /// masks of u's unmapped neighbours in O(deg). The surplus update
  /// applies the two label decrements in sequence: removing an unmapped
  /// G1 node of label a lowers the surplus iff a was oversubscribed, and
  /// removing an unmapped G2 node of label b raises it iff b was not.
  // otged-lint: hot-path
  void Push(DfsState* s, int v, int delta) const {
    const int u = ctx_.order[s->depth];
    const int a = ctx_.g1_label[u], b = ctx_.g2_label[v];
    if (s->c1_rem[a] > s->c2_rem[a]) --s->surplus;
    --s->c1_rem[a];
    if (s->c1_rem[b] >= s->c2_rem[b]) ++s->surplus;
    --s->c2_rem[b];
    s->m1_rem -=
        std::popcount(ctx_.adj1_mask[u] & ctx_.order_prefix[s->depth]);
    s->m2_rem -= std::popcount(ctx_.adj2_mask[v] & s->used);
    for (uint64_t m = ctx_.adj1_mask[u] & ~ctx_.order_prefix[s->depth + 1];
         m != 0; m &= m - 1)
      s->anchor[std::countr_zero(m)] |= 1ull << v;
    s->map1to2[u] = v;
    s->map2to1[v] = u;
    s->used |= 1ull << v;
    s->path_v[s->depth] = v;
    s->path_delta[s->depth] = delta;
    s->g += delta;
    ++s->depth;
  }

  /// The children of the node at s.depth whose bound f = g + delta + h
  /// lies below `bound`, as packed keys `delta << 6 | v` in ascending
  /// (delta, v) order. Children at or above the bound are dropped before
  /// ordering: the driver's bound only ever decreases, so it would
  /// prune exactly those children anyway, and the surviving order is the
  /// one a full (delta, v) sort would give. Each child's f comes from
  /// the counters Push would leave, without a Push: the surplus after
  /// the two label decrements, m1_rem minus u's mapped neighbours, and
  /// m2_rem minus v's used neighbours. On unlabeled edges the delta is
  /// pure bit counting over S = A(u), the images of u's mapped neighbours:
  ///   [l(u) != l(v)] + |S| - |N2(v) & S| + |N2(v) & used & ~S|
  /// (deleted edges to S, then inserted edges to mapped non-neighbours).
  // otged-lint: hot-path
  void RankChildren(const DfsState& s, int bound,
                    std::vector<int>* kids) const {
    const int u = ctx_.order[s.depth];
    const int a = ctx_.g1_label[u];
    // S, and |S| = u's mapped neighbours (the partial map is 1:1).
    const uint64_t img = s.anchor[u];
    const int deg_mapped = std::popcount(img);
    const int surplus_a = s.surplus - (s.c1_rem[a] > s.c2_rem[a] ? 1 : 0);
    const int m1 = s.m1_rem - deg_mapped;
    const int base = s.g + (ctx_.n2 - ctx_.n1);
    kids->clear();
    kids->reserve(static_cast<size_t>(ctx_.n2 - s.depth));
    for (uint64_t m = ctx_.all2 & ~s.used; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const int b = ctx_.g2_label[v];
      const uint64_t nv = ctx_.adj2_mask[v];
      const int kept = std::popcount(nv & img);  // edges to S
      const int inserted = std::popcount(nv & s.used & ~img);
      const int node_cost = a != b ? 1 : 0;
      const int bit_delta = node_cost + deg_mapped - kept + inserted;
      const int delta = ctx_.edge_labeled ? DeltaFast(s, v) : bit_delta;
      const int c1_b = s.c1_rem[b] - (a == b ? 1 : 0);  // after u's removal
      const int surplus = surplus_a + (c1_b >= s.c2_rem[b] ? 1 : 0);
      const int m2 = s.m2_rem - kept - inserted;  // S lies within `used`
      if (base + delta + surplus + std::abs(m1 - m2) >= bound) continue;
      const int key = delta << 6 | v;
      size_t i = kids->size();
      kids->push_back(key);
      for (; i > 0 && (*kids)[i - 1] > key; --i) (*kids)[i] = (*kids)[i - 1];
      (*kids)[i] = key;
    }
  }

  /// Unpacks a RankChildren key.
  static int KeyDelta(int key) { return key >> 6; }
  static int KeyNode(int key) { return key & 63; }

  /// Exact inverse of Push (undo log), in reverse update order.
  // otged-lint: hot-path
  void Pop(DfsState* s) const {
    --s->depth;
    const int u = ctx_.order[s->depth];
    const int v = s->path_v[s->depth];
    s->g -= s->path_delta[s->depth];
    s->used &= ~(1ull << v);
    s->map1to2[u] = -1;
    s->map2to1[v] = -1;
    for (uint64_t m = ctx_.adj1_mask[u] & ~ctx_.order_prefix[s->depth + 1];
         m != 0; m &= m - 1)
      s->anchor[std::countr_zero(m)] &= ~(1ull << v);
    s->m1_rem +=
        std::popcount(ctx_.adj1_mask[u] & ctx_.order_prefix[s->depth]);
    s->m2_rem += std::popcount(ctx_.adj2_mask[v] & s->used);
    const int a = ctx_.g1_label[u], b = ctx_.g2_label[v];
    ++s->c2_rem[b];
    if (s->c1_rem[b] >= s->c2_rem[b]) --s->surplus;
    ++s->c1_rem[a];
    if (s->c1_rem[a] > s->c2_rem[a]) ++s->surplus;
  }

  /// O(1) admissible heuristic over the SoA state; equals
  /// Heuristic(SearchState) on equivalent states (asserted in tests). At
  /// depth == n1 it equals CompletionCost exactly (surplus and m1_rem
  /// are zero there), so leaves need no separate completion pass.
  // otged-lint: hot-path
  int HeuristicOf(const DfsState& s) const {
    return s.surplus + (ctx_.n2 - ctx_.n1) + std::abs(s.m1_rem - s.m2_rem);
  }

  /// Anchor-aware admissible heuristic over the SoA state, after Chang
  /// et al., "Efficient Graph Edit Distance Computation and Verification
  /// via Anchor-aware Lower Bound Estimation". The remaining edges split
  /// into anchored ones (one endpoint mapped) and free-free ones, and any
  /// completion maps anchored G1 edges onto anchored G2 pairs and
  /// free-free edges onto free-free pairs. An unmapped G1 node u sent to
  /// an unmapped G2 node w pays at least |A(u) ^ B(w)| on its anchored
  /// edges, with A(u) the images of u's mapped neighbours and
  /// B(w) = N2(w) & used; the free-free edges pay at least |ff1 - ff2|.
  /// With the node terms of HeuristicOf:
  ///   surplus + (n2 - n1) + sum_u min_w |A(u) ^ B(w)| + |ff1 - ff2|.
  /// Only edge existence is priced and a relabel never costs less than 0,
  /// so the bound is admissible on edge-labeled pairs too. It is neither
  /// above nor below HeuristicOf in general (it ignores the anchored
  /// edges of G2 nodes left unmatched), so callers check both. Summing
  /// stops once the value reaches `cap`; the result is then >= cap.
  /// O(n1 * n2) popcounts; meant for states the O(1) bound did not prune.
  // otged-lint: hot-path
  int AnchorHeuristic(const DfsState& s, int cap) const {
    const uint64_t free1 = ctx_.all1 & ~ctx_.order_prefix[s.depth];
    uint64_t b[kMaxExactNodes];  // the non-empty B(w) of unmapped w
    int nb = 0, anchored1 = 0, anchored2 = 0;
    bool empty_b = false;  // some unmapped w has B(w) == 0
    for (uint64_t m = ctx_.all2 & ~s.used; m != 0; m &= m - 1) {
      const uint64_t bw = ctx_.adj2_mask[std::countr_zero(m)] & s.used;
      anchored2 += std::popcount(bw);
      if (bw == 0) {
        empty_b = true;
      } else {
        b[nb++] = bw;
      }
    }
    for (uint64_t m = free1; m != 0; m &= m - 1)
      anchored1 += std::popcount(s.anchor[std::countr_zero(m)]);
    int h = s.surplus + (ctx_.n2 - ctx_.n1) +
            std::abs((s.m1_rem - anchored1) - (s.m2_rem - anchored2));
    for (uint64_t m = free1; m != 0 && h < cap; m &= m - 1) {
      const uint64_t a = s.anchor[std::countr_zero(m)];
      int best = empty_b ? std::popcount(a) : kMaxExactNodes;
      for (int i = 0; i < nb && best > 0; ++i)
        best = std::min(best, std::popcount(a ^ b[i]));
      h += best;
    }
    return h;
  }

  NodeMatching ExtractMatching(const DfsState& s) const {
    NodeMatching m(static_cast<size_t>(ctx_.n1));
    for (int u = 0; u < ctx_.n1; ++u) {
      OTGED_CHECK(s.map1to2[u] >= 0);
      m[u] = s.map1to2[u];
    }
    return m;
  }

 private:
  SearchContext ctx_;
  std::vector<int> c1_rem_, c2_rem_;
};

}  // namespace otged::internal

#endif  // OTGED_EXACT_SEARCH_COMMON_HPP_
