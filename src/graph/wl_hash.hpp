/// \file wl_hash.hpp
/// \brief Weisfeiler-Lehman color-refinement hash: a cheap isomorphism
/// *invariant* (equal hashes are necessary, not sufficient, for
/// isomorphism). Used by tests as a permutation-invariance oracle and by
/// users as a fast GED==0 pre-filter. The paper motivates GIN by its
/// equivalence to this very test (Section 4.1).
#ifndef OTGED_GRAPH_WL_HASH_HPP_
#define OTGED_GRAPH_WL_HASH_HPP_

#include <cstdint>

#include "graph/graph.hpp"

namespace otged {

/// WL hash after `iterations` rounds of color refinement seeded with node
/// labels (edge labels folded into the neighbor multiset).
uint64_t WlHash(const Graph& g, int iterations = 3);

/// True if the two graphs cannot be distinguished by `iterations` rounds
/// of WL refinement (a necessary condition for GED == 0).
bool WlEquivalent(const Graph& g1, const Graph& g2, int iterations = 3);

}  // namespace otged

#endif  // OTGED_GRAPH_WL_HASH_HPP_
