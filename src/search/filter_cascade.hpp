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
///                                          bound; LB == UB certifies
///   tier 3  OT verify           O(I n^3)   GEDGW conditional gradient +
///                                          k-best edit-path upper bound
///   tier 4  exact verify        exp(n)     branch-and-bound, seeded with
///                                          the best upper bound
///
/// Lower bounds are admissible and upper bounds are witnessed by feasible
/// edit paths, so a range decision (`GED <= tau`?) made at any tier equals
/// the brute-force answer: no false dismissals, no false hits. The one
/// exception is a pair the exact tier cannot prove — its budget ran out,
/// or the pair has more nodes than the exact solvers accept
/// (kMaxExactNodes) — which is kept conservatively (still no false
/// dismissals) and flagged as unproven.
#ifndef OTGED_SEARCH_FILTER_CASCADE_HPP_
#define OTGED_SEARCH_FILTER_CASCADE_HPP_

#include <memory>
#include <optional>

#include "exact/astar.hpp"
#include "search/graph_store.hpp"
#include "search/work_stealing_pool.hpp"

namespace otged {

struct CascadeOptions {
  bool use_branch_bound = true;  ///< enable the tier-1 bipartite LB
  bool use_ot_verify = true;     ///< enable the tier-3 GEDGW refinement
  int kbest_k = 8;               ///< path-search width for the OT tier
  int gw_iters = 20;             ///< conditional-gradient iterations
  /// Tier-4 branch-and-bound node-expansion budget.
  long exact_budget = 20'000'000;
  /// > 1: run the tier-4 verifier (and top-k seed refinement) as the
  /// deterministic parallel branch-and-bound on a private pool of this
  /// many threads, so one hard pair no longer serializes on a single
  /// core. The parallel solver's output is byte-identical for any value
  /// here (see parallel_bnb.hpp); concurrent hard pairs serialize on the
  /// private pool — except through ExactSearchBatch, which solves many
  /// pairs under one acquisition with their subtrees sharing each round
  /// (the QueryEngine routes batch tier-4 work and top-k seed refinement
  /// through it). 0 or 1 = sequential solver (the default).
  int parallel_exact_threads = 0;
};

/// Where a candidate's fate was decided (statistics only). kCache is not
/// a cascade tier proper: it marks pairs the QueryEngine answered from
/// its bound cache without entering the cascade.
enum class CascadeTier : int {
  kInvariant = 0,
  kBranch = 1,
  kHeuristic = 2,
  kOt = 3,
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
  long decided_ot = 0;        ///< decided by the tier-3 OT bound
  long decided_exact = 0;     ///< needed the exact solver
  long ot_calls = 0;          ///< GEDGW invocations
  long exact_calls = 0;       ///< branch-and-bound invocations
  long exact_incomplete = 0;  ///< exact runs that exhausted their budget
  long cache_hits = 0;        ///< pairs answered from the bound cache
  // Parallel-exact observability (zero when parallel_exact_threads <= 1).
  // Every field is deterministic — a pure function of the evaluated
  // pairs — and reconciles exactly with the otged_exact_parallel_*
  // telemetry counters.
  long exact_parallel_runs = 0;        ///< parallel B&B invocations
  long exact_parallel_expansions = 0;  ///< nodes expanded by those runs
  long exact_parallel_subtrees = 0;    ///< root subtrees distributed
  long exact_parallel_rounds = 0;      ///< round barriers executed
  long exact_parallel_incumbent_updates = 0;  ///< incumbent folds
  /// Multi-pair batch dispatches (ExactSearchBatch calls that ran on the
  /// parallel pool). A batch spanning several queries is attributed to
  /// the first pair's stats sink, so summing over queries still
  /// reconciles with otged_exact_parallel_batches_total.
  long exact_parallel_batches = 0;

  void Merge(const CascadeStats& o);
  /// Fraction of candidates dismissed before any OT or exact solver ran.
  double PrunedBeforeSolvers() const;
  /// Every candidate is settled by exactly one tier (or the cache), so
  /// this always equals `candidates` — telemetry reconciliation relies
  /// on it.
  long SettledTotal() const {
    return pruned_index + pruned_invariant + passed_invariant +
           pruned_branch + decided_heuristic + decided_ot + decided_exact +
           cache_hits;
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
  double tier_us[5] = {0, 0, 0, 0, 0};  ///< wall us per tier entered
};

/// Outcome of a bounded-distance evaluation.
struct CascadeVerdict {
  bool within = false;  ///< GED(q, g) <= tau
  int ged = -1;         ///< best distance known (-1 if dismissed by a LB)
  bool exact_distance = false;  ///< `ged` is provably the exact GED
  CascadeTier tier = CascadeTier::kInvariant;  ///< deciding tier
};

/// A tier-4 verification BoundedDistance handed back instead of running:
/// everything the exact solver needs (the size-ordered pair and the best
/// feasible seed bound) plus the context FinishDeferredExact needs to
/// complete the verdict. `pending` is set iff the pair actually reached
/// tier 4 — when an earlier tier settled it, the returned verdict is
/// final and the deferral must be ignored. The graph pointers alias the
/// caller's arguments and stay valid only as long as those do.
struct DeferredExact {
  bool pending = false;
  const Graph* g1 = nullptr;  ///< ordered: g1->NumNodes() <= g2->NumNodes()
  const Graph* g2 = nullptr;
  int tau = 0;
  int lb = -1;  ///< best admissible lower bound established by tiers 0-3
  int ub = -1;  ///< best feasible upper bound (the exact solver's seed)
};

/// Stateless (after construction) decision procedure over graph pairs;
/// safe to share across threads. The cascade is corpus-agnostic: callers
/// (the QueryEngine) hand it the stored graph and its precomputed
/// invariants from whichever StoreSnapshot they pinned. With
/// `parallel_exact_threads > 1` it owns a private exact-verify pool
/// (concurrent hard pairs serialize on it; every other tier stays fully
/// concurrent) — the cascade is then move-only, never copied.
class FilterCascade {
 public:
  explicit FilterCascade(const CascadeOptions& opt = {});

  /// Decides whether GED(query, g) <= tau, escalating only as far as
  /// needed. With `need_distance`, membership alone never settles a
  /// candidate: the cascade continues (through the exact tier if the
  /// bounds disagree) until `ged` is the exact distance — top-k ranking
  /// needs this; range queries do not. `qi` must be
  /// ComputeInvariants(query) and `gi` ComputeInvariants(g).
  /// With `defer` non-null, a pair the cheap tiers cannot settle is NOT
  /// verified here: the cascade fills `defer` (pending = true, escalation
  /// counters already charged) and returns a placeholder verdict the
  /// caller must discard. The caller then solves the collected pairs —
  /// typically via one ExactSearchBatch — and completes each verdict with
  /// FinishDeferredExact. Settled pairs leave `defer->pending` false and
  /// their verdict is final, exactly as without deferral.
  CascadeVerdict BoundedDistance(const Graph& query,
                                 const GraphInvariants& qi, const Graph& g,
                                 const GraphInvariants& gi, int tau,
                                 bool need_distance, CascadeStats* stats,
                                 CascadeProbe* probe = nullptr,
                                 DeferredExact* defer = nullptr) const;

  /// Completes a deferred tier-4 decision from the solver's result:
  /// charges the decided/incomplete counters and assembles the verdict
  /// with the same no-false-dismissals rule the inline tier applies. The
  /// combination BoundedDistance(defer) + ExactSearch + this is
  /// counter-for-counter and bit-for-bit identical to the non-deferred
  /// call.
  CascadeVerdict FinishDeferredExact(const DeferredExact& defer,
                                     const GedSearchResult& exact,
                                     CascadeStats* stats) const;

  const CascadeOptions& options() const { return opt_; }

  /// Tier-4 exact-search entry point, shared by BoundedDistance and the
  /// QueryEngine's top-k seed refinement: dispatches to the
  /// deterministic parallel branch-and-bound when parallel_exact_threads
  /// > 1 and to the sequential solver otherwise. Both prove the same
  /// distance when complete; the parallel path additionally accumulates
  /// its deterministic run counters into `stats` and mirrors them into
  /// the global otged_exact_parallel_* telemetry. A pair over
  /// kMaxExactNodes nodes is not searched: it gets its best upper bound
  /// back (the seed, or the identity matching's cost when that is lower
  /// or there is no seed) with `exact == false` and 0 expansions, so
  /// callers count it as incomplete. `matching` is then the identity
  /// when that realizes `ged`, and empty otherwise.
  GedSearchResult ExactSearch(const Graph& g1, const Graph& g2, long budget,
                              int initial_upper_bound,
                              CascadeStats* stats) const
      EXCLUDES(exact_mu_);

  /// One pair of an ExactSearchBatch: the size-ordered graphs plus the
  /// same per-pair knobs ExactSearch takes.
  struct ExactBatchRequest {
    const Graph* g1 = nullptr;  ///< g1->NumNodes() <= g2->NumNodes()
    const Graph* g2 = nullptr;
    long budget = 0;
    int initial_upper_bound = -1;
  };

  /// Multi-pair tier-4 entry point: solves every request with ONE
  /// parallel branch-and-bound batch (one pool acquisition, all pairs'
  /// subtrees sharing each round's ParallelFor — see
  /// ParallelBranchAndBoundGedBatch), or a sequential per-pair loop when
  /// parallel_exact_threads <= 1. results[i] is byte-identical to
  /// ExactSearch(*items[i].g1, *items[i].g2, ...) for any batch
  /// composition. `stats[i]` (same length as `items`, entries may
  /// repeat) receives pair i's parallel-run counters, so a batch spanning
  /// several queries attributes work to the right query; the one
  /// batch-level counter goes to stats[0] (see exact_parallel_batches).
  /// Pairs over kMaxExactNodes nodes get ExactSearch's answer for them
  /// and stay out of the batch and its counters.
  std::vector<GedSearchResult> ExactSearchBatch(
      const std::vector<ExactBatchRequest>& items,
      const std::vector<CascadeStats*>& stats) const EXCLUDES(exact_mu_);

 private:
  CascadeOptions opt_;
  /// Private pool for the parallel exact verifier (engine pools are busy
  /// with the candidate loop and non-reentrant). Null when sequential.
  std::unique_ptr<WorkStealingPool> exact_pool_;
  mutable Mutex exact_mu_;  ///< one parallel exact run at a time
};

}  // namespace otged

#endif  // OTGED_SEARCH_FILTER_CASCADE_HPP_
