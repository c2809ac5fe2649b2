/// \file filter_cascade.hpp
/// \brief The filter–verify decision procedure behind the search engine.
///
/// A candidate pair (query, stored graph) escalates through tiers of
/// increasing cost until its GED relative to a threshold is decided:
///
///   tier 0  invariant bound     O(n)       label-multiset (Eq. 22) and
///                                          degree-sequence lower bounds
///                                          from GraphStore invariants
///   tier 1  BRANCH bound        O(n^3)     bipartite assignment LB
///   tier 2  heuristic verify    O(n^3)     Classic (Hungarian+VJ) upper
///                                          bound, Hungarian's half from
///                                          tier 1's LAP; LB == UB
///                                          certifies
///   tier 4  exact verify        exp(n)     branch-and-bound with an
///                                          anchor-aware bound, seeded
///                                          with the tier-2 upper bound
///                                          and thresholded at tau (an
///                                          exhausted tree proves
///                                          GED > tau)
///   (no tier 3: an OT upper bound cost more than the exact search it fed)
///
/// Lower bounds are admissible and upper bounds are witnessed by feasible
/// edit paths, so a range decision (`GED <= tau`?) made at any tier equals
/// the brute-force answer: no false dismissals, no false hits. A hit's
/// distance is an unproven upper bound when tier 2 witnessed it (`ub <=
/// tau`, `lb < ub`), when the exact budget ran out, or when the pair is
/// over kMaxExactNodes; the last two keep the pair conservatively.
#ifndef OTGED_SEARCH_FILTER_CASCADE_HPP_
#define OTGED_SEARCH_FILTER_CASCADE_HPP_

#include "exact/astar.hpp"
#include "search/graph_store.hpp"

namespace otged {

struct CascadeOptions {
  bool use_branch_bound = true;  ///< enable the tier-1 bipartite LB
  /// Tier-4 branch-and-bound node-expansion budget. Each hard pair runs
  /// the sequential solver on the calling thread; the engine pool
  /// supplies the parallelism across pairs.
  long exact_budget = 20'000'000;
};

/// Where a candidate's fate was decided (statistics only; 3 is unused).
/// kCache is not a cascade tier proper: it marks pairs the QueryEngine
/// answered from its bound cache without entering the cascade.
enum class CascadeTier : int {
  kInvariant = 0,
  kBranch = 1,
  kHeuristic = 2,
  kExact = 4,
  kCache = 5,
};

/// Per-run filter statistics; totals over many candidates are obtained by
/// Merge, which is associative and commutative, so parallel accumulation
/// into per-worker buffers stays deterministic.
struct CascadeStats {
  long candidates = 0;  ///< pairs considered (incl. index-pruned ones)
  long pruned_index = 0;  ///< dismissed by the index before the cascade ran
  long pruned_invariant = 0;  ///< dismissed by tier 0 alone
  long passed_invariant = 0;  ///< settled by the tier-0 identity fast path
  long pruned_branch = 0;     ///< dismissed by the tier-1 LB
  long decided_heuristic = 0; ///< decided by the tier-2 UB (incl. LB==UB)
  long decided_exact = 0;     ///< needed the exact solver
  long exact_calls = 0;       ///< branch-and-bound invocations
  long exact_incomplete = 0;  ///< exact runs that exhausted their budget
  long cache_hits = 0;        ///< pairs answered from the bound cache
  /// Always 0 (no tier 3); kept only for gedbench/src/main.cpp's reads,
  /// and ignored by Merge and SettledTotal.
  long decided_ot = 0;
  long ot_calls = 0;

  void Merge(const CascadeStats& o);
  /// Fraction of candidates dismissed before any UB or exact solver ran.
  double PrunedBeforeSolvers() const;
  /// Every candidate is settled by exactly one tier (or the cache), so
  /// this always equals `candidates` — telemetry reconciliation relies
  /// on it.
  long SettledTotal() const {
    return pruned_index + pruned_invariant + passed_invariant +
           pruned_branch + decided_heuristic + decided_exact + cache_hits;
  }
};

/// Optional per-candidate probe filled by BoundedDistance: the bound
/// values and solver effort behind one verdict, plus wall time spent in
/// each tier entered. This is the raw material of a TraceEvent — the
/// QueryEngine passes a probe only when tracing is enabled, so the
/// cascade pays for clock reads only when someone is looking.
struct CascadeProbe {
  int lb = -1;              ///< best admissible lower bound established
  int ub = -1;              ///< best feasible upper bound (-1: none)
  long exact_expansions = 0;  ///< branch-and-bound nodes visited
  double tier_us[5] = {0, 0, 0, 0, 0};  ///< wall us per CascadeTier
};

/// Outcome of a bounded-distance evaluation.
struct CascadeVerdict {
  bool within = false;  ///< GED(q, g) <= tau
  int ged = -1;         ///< best distance known (-1 if dismissed by a bound)
  bool exact_distance = false;  ///< `ged` is provably the exact GED
  CascadeTier tier = CascadeTier::kInvariant;  ///< deciding tier
  /// Best proven lower bound on GED(q, g): above tau for a dismissal
  /// (tau + 1 when tier 4 exhausted its tree), equal to `ged` whenever
  /// `exact_distance`.
  int lb = -1;
};

/// Stateless (after construction) decision procedure over graph pairs;
/// safe to share across threads and cheap to copy. The cascade is
/// corpus-agnostic: callers (the QueryEngine) hand it the stored graph
/// and its precomputed invariants from whichever StoreSnapshot they
/// pinned. Every tier, the exact one included, runs on the calling
/// thread.
class FilterCascade {
 public:
  explicit FilterCascade(const CascadeOptions& opt = {});

  /// Decides whether GED(query, g) <= tau, escalating only as far as
  /// needed; range reads and every level of a deepening top-k read call
  /// it the same way. `need_distance` must be false; it stays in the
  /// signature only for gedbench/src/main.cpp, which passes false. `qi`
  /// must be ComputeInvariants(query) and `gi` ComputeInvariants(g).
  CascadeVerdict BoundedDistance(const Graph& query,
                                 const GraphInvariants& qi, const Graph& g,
                                 const GraphInvariants& gi, int tau,
                                 bool need_distance, CascadeStats* stats,
                                 CascadeProbe* probe = nullptr) const;

  const CascadeOptions& options() const { return opt_; }

  /// Tier-4 exact-search entry point of BoundedDistance: the sequential
  /// branch-and-bound, seeded with `initial_upper_bound` (a feasible
  /// bound, or -1), thresholded at `threshold` (-1: none; see
  /// BnbOptions) and capped at `budget` expansions. `ged` never exceeds
  /// the seed: when the search finds nothing below it, the seed comes
  /// back with an empty `matching` (the identity when that is no
  /// costlier). A pair over kMaxExactNodes nodes is not searched: it gets
  /// its best upper bound back the same way, with `exact == false`,
  /// `above_threshold == false` and 0 expansions, so callers count it as
  /// incomplete.
  GedSearchResult ExactSearch(const Graph& g1, const Graph& g2, long budget,
                              int initial_upper_bound,
                              int threshold = -1) const;

 private:
  CascadeOptions opt_;
};

}  // namespace otged

#endif  // OTGED_SEARCH_FILTER_CASCADE_HPP_
