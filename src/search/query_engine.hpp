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
/// With the index enabled (the default), candidate generation goes
/// through GraphIndex first: its partition/label levels produce a
/// candidate list, so the cascade only sees a sublinear slice of the
/// store. Index pruning uses the same admissible bounds a full scan's
/// tier 0 would, so hits are byte-identical with the index on or off;
/// pairs the index dismissed are folded into the query's CascadeStats as
/// `pruned_index`, keeping all counter reconciliation intact.
///
/// Pairs whose exact distance the cascade proves are remembered in a
/// sharded LRU bound cache keyed by (query content fingerprint, stable
/// graph id); repeat queries skip every tier for cached pairs. Only
/// proven-exact distances are cached — a pure function of the pair — so
/// warm results stay correct and deterministic for any tau, for as long
/// as each id names the same graph: within one snapshot lineage. The
/// engine flushes the cache when the snapshot it pins carries a
/// different lineage than the last one (a Restore, or a store moved in).
/// An erased graph keeps its entries; they are never looked up again.
///
/// Top-k is a deepening range read over the same candidates and the same
/// tau-thresholded cascade, at levels t = 0, 1, ...: at each level the
/// index admits its range candidates, and the pass re-tests only the
/// admitted pairs whose proven lower bound equals t (a graph admitted for
/// the first time starts at t: the index dismissed it one level lower).
/// A dismissal raises the pair's bound past t, often by several levels.
/// When the index has admitted every graph, the next level is the
/// smallest open bound instead of t + 1. A query stops after the first
/// level that gives it k hits. Every pair still open at level t has
/// GED >= t proven, so a pair proven within t sits at exactly t: a hit's
/// level is its exact distance.
#ifndef OTGED_SEARCH_QUERY_ENGINE_HPP_
#define OTGED_SEARCH_QUERY_ENGINE_HPP_

#include <memory>
#include <utility>
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
  /// Generate candidates through the two-level index instead of
  /// scanning every stored graph. The index prunes only via admissible
  /// lower bounds, so results are byte-identical either way; turning it
  /// off is for verification and micro-benchmarks.
  bool use_index = true;
  /// Must stay empty: the index has no settable options. Kept only
  /// because gedbench builds a GraphIndex from it.
  IndexOptions index;
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
  /// Tier-by-tier pruning and solver counts. A top-k read counts one
  /// candidate per pair evaluation at every level (a re-tested pair
  /// counts again, and settles in one tier again), plus one `pruned_index`
  /// candidate per graph the index never admitted; so `candidates` can
  /// exceed the corpus size, and SettledTotal() == candidates still holds.
  CascadeStats cascade;
  IndexStats index;        ///< what the candidate index did, summed over
                           ///< a top-k read's levels (zeros when the
                           ///< engine runs without an index)
};

/// One search hit, shared by range and top-k results. `id` is the stable
/// GraphStore id. `ged` is the best distance the engine needed for its
/// decision: the exact distance iff `exact_distance`, otherwise a
/// feasible upper bound: a range hit tier 2's edit path witnessed, or a
/// pair whose exact search ran out of budget or that is too large for it
/// (kept conservatively; the cascade never dismisses without a proof).
/// `lb` is the proven lower bound, so the true distance lies in
/// [lb, ged]; `lb == ged` for every exact hit.
///
/// `exact_distance` defaults to false for every hit kind: a distance is
/// only exact when a tier proved it, and every construction site must
/// say so explicitly.
struct SearchHit {
  int id = -1;
  int ged = -1;
  bool exact_distance = false;
  int lb = -1;
};
using RangeHit = SearchHit;
using TopKHit = SearchHit;

struct RangeResult {
  std::vector<RangeHit> hits;  ///< ascending by id
  QueryStats stats;
};

/// Top-k hits ascend by (lb, id). A proven hit has lb == ged, so proven
/// hits ascend by (ged, id). An unproven one (`exact_distance == false`:
/// its exact search ran out of budget or the pair is over
/// kMaxExactNodes) ranks by its lower bound, with `ged` its feasible
/// upper bound, and is counted in `stats.cascade.exact_incomplete`.
struct TopKResult {
  std::vector<TopKHit> hits;  ///< ascending by (lb, id)
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

  /// The k nearest graphs by exact GED, ascending (lb, id): see
  /// TopKResult for hits the exact tier could not prove.
  TopKResult TopK(const Graph& query, int k) const EXCLUDES(serve_mu_);

  /// Batch variants: all queries share one snapshot and one pool pass
  /// (per level, for top-k) — the (query x candidate) pair grid is
  /// flattened into a single parallel loop, so a straggler pair of one
  /// query overlaps with other queries' work instead of idling the pool
  /// at a per-query barrier.
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

  /// One serving call's set-up, shared by range and top-k (see the .cpp).
  struct Call;

  /// Answers one (query, snapshot slot) pair: bound cache first, then the
  /// cascade; proven-exact outcomes are written back to the cache.
  CascadeVerdict EvalPair(const Graph& query, const QueryContext& qc,
                          const StoreSnapshot& snap, int slot, int tau,
                          CascadeStats* stats) const;

  /// Pins the current snapshot; flushes the bound cache first when the
  /// snapshot's lineage differs from the one the cache was filled under.
  std::shared_ptr<const StoreSnapshot> PinSnapshot() const
      REQUIRES(serve_mu_);

  /// Pins the snapshot and its index view, deduplicates the queries and
  /// prepares their contexts.
  Call BeginCall(const std::vector<const Graph*>& queries) const
      REQUIRES(serve_mu_);
  /// Ascending candidate slots of each listed distinct query at its
  /// `tau[u]` (every slot without an index), one pool pass over `us`.
  std::vector<std::vector<int>> Candidates(Call* c, const std::vector<int>& us,
                                           const std::vector<int>& tau) const
      REQUIRES(serve_mu_);
  /// One flattened pool pass over (distinct query, slot) pairs at each
  /// query's `tau[u]`; statistics merge into the call.
  std::vector<CascadeVerdict> EvalPairs(
      Call* c, const std::vector<std::pair<int, int>>& tasks,
      const std::vector<int>& tau) const REQUIRES(serve_mu_);
  /// Distinct query `u`'s stats: the call's counters plus the graphs the
  /// index never admitted (`n - admitted`) folded in as `pruned_index`.
  QueryStats FinishQuery(const Call& c, int u, long admitted,
                         double call_ms) const;

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
  mutable BoundCache cache_;
  mutable uint64_t cache_lineage_ GUARDED_BY(serve_mu_) = 0;
};

}  // namespace otged

#endif  // OTGED_SEARCH_QUERY_ENGINE_HPP_
