/// \file query_engine.hpp
/// \brief Parallel filter–verify query serving over a dynamic GraphStore.
///
/// The engine answers range queries (all graphs with GED(q, g) <= tau)
/// and top-k queries (the k nearest graphs by exact GED, ties broken by
/// id) by driving the FilterCascade over a shared-cursor thread pool.
/// Every query pins one StoreSnapshot for its whole lifetime, so serving
/// interleaves safely with GraphStore::Insert/Erase: the result is exact
/// for the snapshot whose epoch is reported in QueryStats. Results are
/// bit-identical for any thread count: parallel loops write into
/// per-candidate slots and statistics are merged from per-worker buffers
/// with commutative sums, so scheduling order never leaks into the output.
///
/// With the index enabled (the default), range candidate generation
/// goes through GraphIndex first: its partition/label levels produce a
/// candidate list, so the cascade only sees a sublinear slice of the
/// store. Index pruning uses the same admissible bounds a full scan's
/// tier 0 would, so hits are byte-identical with the index on or off;
/// pairs the index dismissed are folded into the query's CascadeStats as
/// `pruned_index`, keeping `candidates == corpus size` per query and all
/// counter reconciliation intact. Top-k does not use the index.
///
/// Pairs whose exact distance the cascade proves are remembered in a
/// sharded LRU bound cache keyed by (query content fingerprint, stable
/// graph id); repeat queries skip every tier for cached pairs. Only
/// proven-exact distances are cached — a pure function of the pair — so
/// warm results stay correct and deterministic for any tau. Entries of an
/// erased graph are invalidated lazily at the next query (stable ids are
/// never reused, so stale entries can never alias a new graph).
///
/// Top-k runs in three deterministic phases:
///   A. invariant lower bounds for every stored graph (parallel, O(n)),
///      kept as a bound matrix; nth_element picks the k + probes graphs
///      with the lowest (bound, id);
///   B. refined upper bounds for those probes — the k-th smallest is a
///      provable cap tau0 on the k-th best distance;
///   C. a scan of the bound matrix keeps every graph whose lower bound is
///      within tau0 (the rest are counted as `pruned_invariant`);
///      exact bounded-distance verification (parallel) of those, then a
///      final sort by (ged, id).
#ifndef OTGED_SEARCH_QUERY_ENGINE_HPP_
#define OTGED_SEARCH_QUERY_ENGINE_HPP_

#include <memory>
#include <vector>

#include "core/thread_annotations.hpp"

#include "search/bound_cache.hpp"
#include "search/filter_cascade.hpp"
#include "search/graph_store.hpp"
#include "search/index/graph_index.hpp"
#include "search/thread_pool.hpp"

namespace otged {

struct EngineOptions {
  int num_threads = 0;  ///< 0 = std::thread::hardware_concurrency()
  CascadeOptions cascade;
  bool use_bound_cache = true;  ///< cache proven-exact pair distances
  /// Generate range candidates through the two-level index instead of
  /// scanning every stored graph (top-k always scans its bound matrix).
  /// The index prunes only via admissible lower bounds, so results are
  /// byte-identical either way; turning it off is for verification and
  /// micro-benchmarks.
  bool use_index = true;
  IndexOptions index;  ///< empty: the index has no settable options
  /// Top-k verifies every graph whose lower bound is under the cap set
  /// by the k seeds' upper bounds, so a loose greedy bound on one seed
  /// drags in a large slice of the corpus. Each seed pair therefore
  /// gets a budgeted branch-and-bound refinement (node-expansion budget
  /// below; 0 disables; the same FilterCascade::ExactSearch tier 4 uses)
  /// before the cap is taken — the incumbent it returns is a feasible
  /// edit path, so the cap stays admissible and results are
  /// byte-identical, only cheaper. k seeds per query pay this; the
  /// collapsed verification set repays it at any real corpus size.
  long topk_seed_refine_budget = 50'000;
  /// How many low-bound candidates beyond k get a refined upper bound
  /// before the cap is taken. The k-th *smallest* refined bound over the
  /// whole probe pool caps the k-th best distance (each probe admits a
  /// feasible path), so a pool that contains the true neighbors yields a
  /// near-tight cap even when the k lowest-LB graphs are false friends —
  /// ties in the weak invariant bound routinely rank unrelated graphs
  /// ahead of a query's true cluster. 0 = cap from the k seeds alone.
  int topk_seed_probes = 16;
};

/// Per-query serving telemetry.
struct QueryStats {
  double wall_ms = 0.0;    ///< latency of this query: for a single call,
                           ///< its wall time; within a batch, the time
                           ///< from batch start until this query's last
                           ///< pair evaluation completed — so batch-served
                           ///< queries report individual latencies instead
                           ///< of all inheriting the whole-batch wall
  uint64_t epoch = 0;      ///< store epoch the query was served against
  uint64_t trace_id = 0;   ///< process-unique query id; TraceEvents carry
                           ///< it (duplicate queries in a batch share one)
  CascadeStats cascade;    ///< tier-by-tier pruning and solver counts
  IndexStats index;        ///< what the candidate index did (zeros for
                           ///< top-k and when the engine runs without
                           ///< an index)
};

/// One search hit, shared by range and top-k results. `id` is the stable
/// GraphStore id. `ged` is the best distance the engine needed for its
/// decision: the exact distance iff `exact_distance`, otherwise a
/// feasible upper bound: a range hit tier 2's edit path witnessed, or a
/// pair whose exact search ran out of budget or that is too large for it
/// (kept conservatively; the cascade never dismisses without a proof).
///
/// `exact_distance` defaults to false for every hit kind: a distance is
/// only exact when a tier proved it, and every construction site must
/// say so explicitly. (RangeHit and TopKHit used to be separate structs
/// whose defaults silently disagreed — false vs true — which invited
/// misreads in call sites that default-construct hits.)
struct SearchHit {
  int id = -1;
  int ged = -1;
  bool exact_distance = false;
};
using RangeHit = SearchHit;
using TopKHit = SearchHit;

struct RangeResult {
  std::vector<RangeHit> hits;  ///< ascending by id
  QueryStats stats;
};

/// Top-k hits are exact distances ascending (ged, id), except pairs the
/// exact tier could not finish (`exact_distance == false`).
struct TopKResult {
  std::vector<TopKHit> hits;  ///< ascending by (ged, id)
  QueryStats stats;
};

/// Thread-safe for concurrent callers: each call (single query or batch)
/// monopolizes the engine's non-reentrant pool, so concurrent calls on
/// one engine queue up behind each other; inside a call, candidates — and
/// for batches, all (query, candidate) pairs at once — spread over every
/// worker. Store mutations never block serving: a call pins the snapshot
/// current at its start and is oblivious to later Insert/Erase.
class QueryEngine {
 public:
  explicit QueryEngine(const GraphStore* store,
                       const EngineOptions& opt = {});

  /// All graphs with GED(query, g) <= tau; candidates are verified in
  /// parallel across the pool.
  RangeResult Range(const Graph& query, int tau) const EXCLUDES(serve_mu_);

  /// The k nearest graphs by exact GED, ascending (ged, id).
  TopKResult TopK(const Graph& query, int k) const EXCLUDES(serve_mu_);

  /// Batch variants: all queries share one snapshot and one pool pass per
  /// phase — the (query x candidate) pair grid is flattened into a single
  /// parallel loop, so a straggler pair of one query overlaps with other
  /// queries' work instead of idling the pool at a per-query barrier.
  /// Each result equals the corresponding single-query call on the same
  /// snapshot and cache state; `stats.wall_ms` reports each query's own
  /// completion time within the batch (see QueryStats).
  /// Identical queries in one batch are evaluated once and share one
  /// result (so their entries are always byte-identical to each other;
  /// serving them as *sequential* single calls could instead tighten the
  /// later twin's non-exact distances from the cache the earlier one
  /// warmed).
  std::vector<RangeResult> RangeBatch(const std::vector<Graph>& queries,
                                      int tau) const EXCLUDES(serve_mu_);
  std::vector<TopKResult> TopKBatch(const std::vector<Graph>& queries,
                                    int k) const EXCLUDES(serve_mu_);

  const GraphStore& store() const { return *store_; }
  int num_threads() const { return pool_->num_threads(); }
  /// Current bound-cache occupancy (proven-exact pairs retained).
  size_t CacheSize() const { return cache_.Size(); }
  /// The candidate-generation index, or nullptr when use_index is off.
  /// Exposed for inspection (e.g. warming the view for a snapshot);
  /// serving maintains it automatically.
  GraphIndex* index() const { return index_.get(); }

 private:
  /// Per-query precomputation shared by all of its pair evaluations.
  struct QueryContext {
    GraphInvariants qi;
    uint64_t fp = 0;        ///< content fingerprint (bound-cache key half)
    uint64_t trace_id = 0;  ///< process-unique id stamped on TraceEvents
  };

  /// Answers one (query, snapshot slot) pair: bound cache first, then the
  /// cascade; proven-exact outcomes are written back to the cache.
  CascadeVerdict EvalPair(const Graph& query, const QueryContext& qc,
                          const StoreSnapshot& snap, int slot, int tau,
                          bool need_distance, CascadeStats* stats) const;

  /// Pins the current snapshot, first draining the store's erase log into
  /// cache invalidations.
  std::shared_ptr<const StoreSnapshot> PinSnapshot() const
      REQUIRES(serve_mu_);

  /// Shared-pass implementations.
  std::vector<RangeResult> RangeBatchLocked(
      const std::vector<const Graph*>& queries, int tau) const
      REQUIRES(serve_mu_);
  std::vector<TopKResult> TopKBatchLocked(
      const std::vector<const Graph*>& queries, int k) const
      REQUIRES(serve_mu_);

  const GraphStore* store_;
  FilterCascade cascade_;
  /// Mutable because serving (const) advances the cached view; GraphIndex
  /// is internally synchronized.
  std::unique_ptr<GraphIndex> index_;
  std::unique_ptr<ThreadPool> pool_;
  mutable Mutex serve_mu_;  ///< one call at a time on the pool
  bool use_cache_;
  long topk_refine_budget_;
  int topk_probes_;
  mutable BoundCache cache_;
  mutable size_t erase_cursor_ GUARDED_BY(serve_mu_) = 0;
};

}  // namespace otged

#endif  // OTGED_SEARCH_QUERY_ENGINE_HPP_
