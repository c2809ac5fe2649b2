/// \file astar.hpp
/// \brief Exact GED via A* search over partial node mappings [40], plus
/// the beam-limited variant (A*-beam [31], the backbone of the Noah
/// baseline).
#ifndef OTGED_EXACT_ASTAR_HPP_
#define OTGED_EXACT_ASTAR_HPP_

#include <optional>

#include "core/matrix.hpp"
#include "editpath/edit_path.hpp"
#include "graph/graph.hpp"

namespace otged {

/// Largest node count the exact searches accept: their partial mappings
/// keep the used G2 nodes in one 64-bit mask.
inline constexpr int kMaxExactNodes = 64;

/// Result of an exact (or beam) GED search.
struct GedSearchResult {
  int ged = 0;
  NodeMatching matching;  ///< G1 node -> G2 node realizing `ged`
  bool exact = true;      ///< false for beam results / budget exhaustion
  long expansions = 0;    ///< search-effort telemetry
  /// A thresholded search (BnbOptions::threshold) exhausted its tree
  /// without a path within the threshold: GED > threshold is proven, and
  /// `ged` is only a feasible upper bound (`exact` is false).
  bool above_threshold = false;
};

/// Options for the A* searches.
struct AstarOptions {
  long max_expansions = 1'000'000;  ///< give up (return nullopt) beyond this
  int beam_width = 0;               ///< 0 = full A*; > 0 = beam search
  /// Optional (n1 x n2) guidance matrix: higher value = prefer mapping
  /// u_i -> v_j earlier. Used by the Noah stand-in, where a learned model
  /// (GPN) orders the successor states.
  const Matrix* guidance = nullptr;
};

/// Exact GED by A* with an admissible label-multiset + edge-count
/// heuristic. Requires n1 <= n2 (callers swap). Returns nullopt if the
/// expansion budget is exhausted before the optimum is proven.
std::optional<GedSearchResult> AstarGed(const Graph& g1, const Graph& g2,
                                        const AstarOptions& opt = {});

/// A*-beam: keeps only the best `beam_width` frontier states per depth.
/// Always returns a feasible (upper-bound) result; `exact` is set only if
/// beam happens to be wide enough to be exhaustive.
GedSearchResult BeamGed(const Graph& g1, const Graph& g2, int beam_width,
                        const Matrix* guidance = nullptr);

}  // namespace otged

#endif  // OTGED_EXACT_ASTAR_HPP_
