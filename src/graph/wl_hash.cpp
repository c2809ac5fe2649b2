#include "graph/wl_hash.hpp"

#include <algorithm>
#include <vector>

namespace otged {

namespace {

// 64-bit mix (splitmix64 finalizer); good avalanche for color combining.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t WlHash(const Graph& g, int iterations) {
  const int n = g.NumNodes();
  std::vector<uint64_t> color(n), next(n);
  for (int v = 0; v < n; ++v)
    color[v] = Mix(0xC0FFEEull + static_cast<uint64_t>(g.label(v)));
  for (int it = 0; it < iterations; ++it) {
    for (int v = 0; v < n; ++v) {
      // Order-independent neighbor aggregation: sum of mixed
      // (neighbor color, edge label) signatures.
      uint64_t agg = 0;
      for (int w : g.Neighbors(v)) {
        uint64_t e = static_cast<uint64_t>(g.edge_label(v, w));
        agg += Mix(color[w] ^ Mix(e + 0xED6Eull));
      }
      next[v] = Mix(color[v] ^ Mix(agg));
    }
    color.swap(next);
  }
  std::sort(color.begin(), color.end());
  uint64_t h = Mix(static_cast<uint64_t>(g.NumNodes()) << 32 |
                   static_cast<uint32_t>(g.NumEdges()));
  for (uint64_t c : color) h = Mix(h ^ c);
  return h;
}

bool WlEquivalent(const Graph& g1, const Graph& g2, int iterations) {
  return WlHash(g1, iterations) == WlHash(g2, iterations);
}

}  // namespace otged
