#include "search/query_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "graph/graph_io.hpp"
#include "heuristics/bipartite.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace otged {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Allocates `n` consecutive process-unique query trace ids, returning
/// the first. Ids start at 1 so 0 always means "untraced".
uint64_t NextTraceIds(int n) {
  static std::atomic<uint64_t> seq{1};
  return seq.fetch_add(static_cast<uint64_t>(n),
                       std::memory_order_relaxed);
}

/// Per-query completion times within one batch pool pass. Each worker
/// overwrites its own (worker, query) cell after finishing a pair — the
/// value is monotone within a worker, so the max over workers is the
/// time the query's last pair completed. No atomics, no contention.
class QueryWallClock {
 public:
  QueryWallClock(int workers, int nu,
                 std::chrono::steady_clock::time_point start)
      : start_(start), nu_(nu),
        done_ms_(static_cast<size_t>(workers) * nu, 0.0) {}

  void MarkDone(int worker, int u) {
    done_ms_[static_cast<size_t>(worker) * nu_ + u] = ElapsedMs(start_);
  }

  /// Wall time of query `u`, falling back to `batch_ms` for queries that
  /// never ran a pair (empty corpus).
  double WallMs(int u, double batch_ms) const {
    double wall = 0.0;
    for (size_t w = 0; w * nu_ + u < done_ms_.size(); ++w)
      wall = std::max(wall, done_ms_[w * nu_ + u]);
    return wall > 0.0 ? wall : batch_ms;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  size_t nu_;
  std::vector<double> done_ms_;
};

// Identical queries in one batch are evaluated once and share the
// result. Besides not paying twice, this keeps batch output
// deterministic with the bound cache on: two tasks for the same
// (fingerprint, graph) key racing a lookup against the other's insert
// could otherwise settle on differently-tight (though always correct)
// distances depending on scheduling. Fingerprint equality is confirmed
// by comparing the actual graphs, so a 64-bit collision between
// distinct queries degrades to two evaluations, never a shared answer.
std::vector<int> DedupByFingerprint(const std::vector<const Graph*>& queries,
                                    const std::vector<uint64_t>& fp,
                                    std::vector<int>* uniq_of) {
  std::vector<int> uniq;
  std::unordered_multimap<uint64_t, int> by_fp;  // fp -> unique index
  uniq_of->resize(fp.size());
  for (size_t q = 0; q < fp.size(); ++q) {
    int found = -1;
    auto [lo, hi] = by_fp.equal_range(fp[q]);
    for (auto it = lo; it != hi; ++it) {
      if (*queries[uniq[it->second]] == *queries[q]) {
        found = it->second;
        break;
      }
    }
    if (found < 0) {
      found = static_cast<int>(uniq.size());
      uniq.push_back(static_cast<int>(q));
      by_fp.emplace(fp[q], found);
    }
    (*uniq_of)[q] = found;
  }
  return uniq;
}

}  // namespace

QueryEngine::QueryEngine(const GraphStore* store, const EngineOptions& opt)
    : store_(store),
      cascade_(opt.cascade),
      use_cache_(opt.use_bound_cache),
      topk_refine_budget_(opt.topk_seed_refine_budget),
      topk_probes_(opt.topk_seed_probes) {
  OTGED_CHECK(store_ != nullptr);
  if (opt.use_index) index_ = std::make_unique<GraphIndex>(opt.index);
  int threads = opt.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
}

std::shared_ptr<const StoreSnapshot> QueryEngine::PinSnapshot() const {
  // Pin and drain atomically (one store-lock acquisition), then evict.
  // Atomicity matters for Restore (the one mutation that can rebind an
  // id): the drained ids are exactly those retired up to the pinned
  // epoch, so entries for ids the pinned snapshot binds differently are
  // evicted before any lookup, while a Restore landing after the pin
  // leaves its log entries for the NEXT query's drain — which also
  // covers anything this query inserts against the older binding. For
  // plain Erase the drain is hygiene, not correctness: ids are never
  // reused, so a stale entry still holds the right distance.
  if (!use_cache_) return store_->Snapshot();
  std::vector<int> erased;
  auto snap = store_->SnapshotAndErased(&erase_cursor_, &erased);
  cache_.EraseGraphs(erased);
  return snap;
}

CascadeVerdict QueryEngine::EvalPair(const Graph& query,
                                     const QueryContext& qc,
                                     const StoreSnapshot& snap, int slot,
                                     int tau, bool need_distance,
                                     CascadeStats* stats) const {
  const int gid = snap.id(slot);
  const bool tracing =
      OTGED_TELEMETRY_ON() && telemetry::GlobalTrace().enabled();
  const double t0 = tracing ? telemetry::NowUs() : 0.0;
  if (use_cache_) {
    if (std::optional<int> ged = cache_.Lookup(qc.fp, gid)) {
      stats->candidates++;
      stats->cache_hits++;
      // Mirror both stats into the global counters: a cache hit is a
      // candidate the cascade never saw, so the cascade's own candidate
      // counter must be topped up here for totals to reconcile.
      OTGED_COUNT("otged_cascade_candidates_total",
                  "candidate pairs fed into the filter cascade");
      OTGED_COUNT("otged_cascade_cache_hits_total",
                  "candidate pairs answered from the bound cache");
      CascadeVerdict v;
      v.within = *ged <= tau;
      v.ged = *ged;
      v.exact_distance = true;
      v.tier = CascadeTier::kCache;
      if (tracing) {
        telemetry::TraceEvent e;
        e.query_id = qc.trace_id;
        e.graph_id = gid;
        e.tier = static_cast<int>(v.tier);
        e.ged = v.ged;
        e.within = v.within;
        e.exact = true;
        e.cache_hit = true;
        e.total_us = telemetry::NowUs() - t0;
        telemetry::GlobalTrace().Record(e);
      }
      return v;
    }
  }
  CascadeProbe probe;
  CascadeVerdict v = cascade_.BoundedDistance(
      query, qc.qi, snap.graph(slot), snap.invariants(slot), tau,
      need_distance, stats, tracing ? &probe : nullptr);
  if (use_cache_ && v.exact_distance) cache_.Insert(qc.fp, gid, v.ged);
  if (tracing) {
    telemetry::TraceEvent e;
    e.query_id = qc.trace_id;
    e.graph_id = gid;
    e.tier = static_cast<int>(v.tier);
    e.lb = probe.lb;
    e.ub = probe.ub;
    e.ged = v.ged;
    e.within = v.within;
    e.exact = v.exact_distance;
    e.exact_expansions = probe.exact_expansions;
    std::copy(probe.tier_us, probe.tier_us + 5, e.tier_us);
    e.total_us = telemetry::NowUs() - t0;
    telemetry::GlobalTrace().Record(e);
  }
  return v;
}

std::vector<RangeResult> QueryEngine::RangeBatchLocked(
    const std::vector<const Graph*>& queries, int tau) const {
  auto start = std::chrono::steady_clock::now();
  auto snap = PinSnapshot();
  const int n = snap->Size();
  const int nq = static_cast<int>(queries.size());

  std::vector<uint64_t> fp(nq);
  for (int q = 0; q < nq; ++q) fp[q] = GraphContentFingerprint(*queries[q]);
  std::vector<int> uniq_of;
  const std::vector<int> uniq = DedupByFingerprint(queries, fp, &uniq_of);
  const int nu = static_cast<int>(uniq.size());

  const uint64_t trace_base = NextTraceIds(nu);
  std::vector<QueryContext> ctx(nu);
  for (int u = 0; u < nu; ++u)
    ctx[u] = {ComputeInvariants(*queries[uniq[u]]), fp[uniq[u]],
              trace_base + static_cast<uint64_t>(u)};

  QueryWallClock wall_clock(pool_->num_threads(), nu, start);

  // Candidate generation: the index's partition/label levels, or every
  // slot when running without an index. Index pruning is by admissible
  // bounds only, so the surviving set is a superset of the true hits and
  // the cascade's own tier 0 re-screens each survivor — results are
  // byte-identical either way.
  std::shared_ptr<const IndexView> iview;
  if (index_ != nullptr && n > 0) iview = index_->ViewFor(snap);
  std::vector<std::vector<int>> cand(nu);  ///< slots, ascending
  std::vector<IndexStats> istats(nu);
  if (iview != nullptr) {
    pool_->ParallelFor(nu, /*grain=*/1, [&](int64_t u, int worker) {
      std::vector<int> ids;
      iview->RangeCandidates(ctx[u].qi, tau, &ids, &istats[u]);
      cand[u].reserve(ids.size());
      for (const int id : ids) cand[u].push_back(snap->SlotOf(id));
      wall_clock.MarkDone(worker, static_cast<int>(u));
    });
  } else {
    for (int u = 0; u < nu; ++u) {
      cand[u].resize(static_cast<size_t>(n));
      std::iota(cand[u].begin(), cand[u].end(), 0);
    }
  }
  std::vector<std::pair<int, int>> tasks;  ///< (unique query, slot)
  for (int u = 0; u < nu; ++u)
    for (const int slot : cand[u]) tasks.emplace_back(u, slot);

  std::vector<CascadeVerdict> verdicts(tasks.size());
  std::vector<std::vector<CascadeStats>> worker_stats(
      pool_->num_threads(), std::vector<CascadeStats>(nu));
  pool_->ParallelFor(static_cast<int64_t>(tasks.size()), /*grain=*/4,
                     [&](int64_t t, int worker) {
                       const auto [u, slot] = tasks[t];
                       verdicts[t] = EvalPair(*queries[uniq[u]], ctx[u],
                                              *snap, slot, tau,
                                              /*need_distance=*/false,
                                              &worker_stats[worker][u]);
                       wall_clock.MarkDone(worker, u);
                     });
  const double wall = ElapsedMs(start);
  OTGED_COUNT_N("otged_queries_total{kind=\"range\"}",
                "range queries served", nq);
  OTGED_HIST_RECORD("otged_batch_latency_us{kind=\"range\"}",
                    "wall time of one serving call (single or batch)",
                    std::lround(wall * 1000.0));

  std::vector<RangeResult> uniq_res(nu);
  for (size_t t = 0; t < tasks.size(); ++t) {
    const auto [u, slot] = tasks[t];
    const CascadeVerdict& v = verdicts[t];
    if (v.within)
      uniq_res[u].hits.push_back({snap->id(slot), v.ged, v.exact_distance});
  }
  for (int u = 0; u < nu; ++u) {
    RangeResult& res = uniq_res[u];
    for (const auto& ws : worker_stats) res.stats.cascade.Merge(ws[u]);
    res.stats.index = istats[u];
    // Fold index-dismissed graphs into the stats (and mirror into the
    // global counters) so `candidates` still counts the whole corpus and
    // SettledTotal == candidates keeps reconciling.
    const long pruned = static_cast<long>(n) -
                        static_cast<long>(cand[u].size());
    if (pruned > 0) {
      res.stats.cascade.candidates += pruned;
      res.stats.cascade.pruned_index += pruned;
      OTGED_COUNT_N("otged_cascade_candidates_total",
                    "candidate pairs fed into the filter cascade", pruned);
      OTGED_COUNT_N("otged_cascade_pruned_total{tier=\"index\"}",
                    "pairs dismissed by the candidate index before the "
                    "cascade",
                    pruned);
    }
    res.stats.wall_ms = wall_clock.WallMs(u, wall);
    res.stats.epoch = snap->epoch();
    res.stats.trace_id = ctx[u].trace_id;
    OTGED_HIST_RECORD("otged_query_latency_us{kind=\"range\"}",
                      "per-query serving latency",
                      std::lround(res.stats.wall_ms * 1000.0));
  }
  std::vector<RangeResult> out(nq);
  for (int q = 0; q < nq; ++q) out[q] = uniq_res[uniq_of[q]];
  return out;
}

std::vector<TopKResult> QueryEngine::TopKBatchLocked(
    const std::vector<const Graph*>& queries, int k) const {
  auto start = std::chrono::steady_clock::now();
  auto snap = PinSnapshot();
  const int n = snap->Size();
  const int nq = static_cast<int>(queries.size());
  std::vector<TopKResult> out(nq);
  const int kk = std::min(k, n);
  if (kk <= 0 || nq == 0) {
    const double wall = ElapsedMs(start);
    for (TopKResult& res : out) {
      res.stats.wall_ms = wall;
      res.stats.epoch = snap->epoch();
    }
    return out;
  }

  std::vector<uint64_t> fp(nq);
  for (int q = 0; q < nq; ++q) fp[q] = GraphContentFingerprint(*queries[q]);
  std::vector<int> uniq_of;
  const std::vector<int> uniq = DedupByFingerprint(queries, fp, &uniq_of);
  const int nu = static_cast<int>(uniq.size());

  const uint64_t trace_base = NextTraceIds(nu);
  std::vector<QueryContext> ctx(nu);
  for (int u = 0; u < nu; ++u)
    ctx[u] = {ComputeInvariants(*queries[uniq[u]]), fp[uniq[u]],
              trace_base + static_cast<uint64_t>(u)};
  QueryWallClock wall_clock(pool_->num_threads(), nu, start);

  // --- phase A: the most promising probe candidates per query ----------
  // Materialize the nu x n invariant-bound matrix and select a pool of
  // kp = kk + topk_seed_probes lowest-(bound, slot) graphs per query
  // (slots ascend by id, so ties break by id).
  const int kp =
      std::min(n, kk + std::max(0, topk_probes_));  ///< probe-pool size
  std::vector<int> seeds(static_cast<size_t>(nu) * kp);
  std::vector<int> lb(static_cast<size_t>(nu) * n);
  pool_->ParallelFor(static_cast<int64_t>(nu) * n, /*grain=*/64,
                     [&](int64_t t, int) {
                       const int u = static_cast<int>(t / n);
                       const int slot = static_cast<int>(t % n);
                       lb[t] = InvariantLowerBound(ctx[u].qi,
                                                   snap->invariants(slot));
                     });
  for (int u = 0; u < nu; ++u) {
    const int* row = lb.data() + static_cast<size_t>(u) * n;
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::nth_element(order.begin(), order.begin() + (kp - 1), order.end(),
                     [&](int a, int b) {
                       return row[a] != row[b] ? row[a] < row[b] : a < b;
                     });
    std::copy(order.begin(), order.begin() + kp,
              seeds.begin() + static_cast<size_t>(u) * kp);
  }

  // --- phase B: cap each query's k-th best distance ---------------------
  // Every probe admits a feasible edit path no longer than its upper
  // bound (cached exact distance when known), so the kk-th *smallest*
  // bound over the pool caps the true kk-th best distance. Two things
  // keep that cap tight, and phase C walks *every* graph whose lower
  // bound is under it, so tightness is the whole game: (1) each probe's
  // greedy Classic bound — often 3-4x the true distance on near-identical
  // pairs — is refined by a budgeted branch-and-bound whose incumbent is
  // still a feasible path (admissible, proven or not); (2) the pool
  // extends topk_seed_probes past kk, because the invariant bound is weak
  // enough that unrelated graphs routinely tie with the query's true
  // neighbors at the lowest bounds — with extras, the true neighbors'
  // small refined bounds push the false friends' large ones out of the
  // cap. Together they collapse the phase-C range by orders of magnitude
  // on clustered corpora.
  std::vector<int> seed_ub(static_cast<size_t>(nu) * kp);
  pool_->ParallelFor(
      static_cast<int64_t>(nu) * kp, /*grain=*/1,
      [&](int64_t t, int worker) {
        const int u = static_cast<int>(t / kp);
        const int slot = seeds[t];
        if (use_cache_) {
          if (std::optional<int> ged =
                  cache_.Lookup(ctx[u].fp, snap->id(slot))) {
            seed_ub[t] = *ged;
            wall_clock.MarkDone(worker, u);
            return;
          }
        }
        auto [g1, g2] = OrderBySize(*queries[uniq[u]], snap->graph(slot));
        int ub = ClassicGed(*g1, *g2).ged;
        if (topk_refine_budget_ > 0) {
          // Routed through the cascade's tier-4 entry point, which owns
          // the answer for pairs too large to search. Refinement is not
          // an exact_calls tier-4 decision, so no counter moves.
          GedSearchResult r =
              cascade_.ExactSearch(*g1, *g2, topk_refine_budget_, ub);
          ub = r.ged;
          if (use_cache_ && r.exact)
            cache_.Insert(ctx[u].fp, snap->id(slot), r.ged);
        }
        seed_ub[t] = ub;
        wall_clock.MarkDone(worker, u);
      });
  std::vector<int> tau0(nu);
  for (int u = 0; u < nu; ++u) {
    std::vector<int> row(seed_ub.begin() + static_cast<size_t>(u) * kp,
                         seed_ub.begin() + static_cast<size_t>(u + 1) * kp);
    std::nth_element(row.begin(), row.begin() + (kk - 1), row.end());
    tau0[u] = row[static_cast<size_t>(kk - 1)];
  }

  // --- phase C: exact verification of surviving candidates -------------
  // The task set is exactly { slot : InvariantLowerBound <= tau0 }, read
  // off phase A's bound matrix.
  std::vector<std::pair<int, int>> tasks;  ///< (unique query, slot)
  std::vector<long> screened(nu, 0);
  for (int u = 0; u < nu; ++u) {
    for (int slot = 0; slot < n; ++slot) {
      if (lb[static_cast<size_t>(u) * n + slot] <= tau0[u])
        tasks.emplace_back(u, slot);
      else
        ++screened[u];
    }
  }
  std::vector<CascadeVerdict> verdicts(tasks.size());
  std::vector<std::vector<CascadeStats>> worker_stats(
      pool_->num_threads(), std::vector<CascadeStats>(nu));
  pool_->ParallelFor(static_cast<int64_t>(tasks.size()), /*grain=*/2,
                     [&](int64_t t, int worker) {
                       const auto [u, slot] = tasks[t];
                       verdicts[t] = EvalPair(*queries[uniq[u]], ctx[u],
                                              *snap, slot, tau0[u],
                                              /*need_distance=*/true,
                                              &worker_stats[worker][u]);
                       wall_clock.MarkDone(worker, u);
                     });
  const double wall = ElapsedMs(start);
  OTGED_COUNT_N("otged_queries_total{kind=\"topk\"}",
                "top-k queries served", nq);
  OTGED_HIST_RECORD("otged_batch_latency_us{kind=\"topk\"}",
                    "wall time of one serving call (single or batch)",
                    std::lround(wall * 1000.0));

  std::vector<TopKResult> uniq_res(nu);
  for (size_t t = 0; t < tasks.size(); ++t) {
    const auto [u, slot] = tasks[t];
    if (verdicts[t].within)
      uniq_res[u].hits.push_back(
          {snap->id(slot), verdicts[t].ged, verdicts[t].exact_distance});
  }
  for (int u = 0; u < nu; ++u) {
    TopKResult& res = uniq_res[u];
    std::sort(res.hits.begin(), res.hits.end(),
              [](const TopKHit& a, const TopKHit& b) {
                return a.ged != b.ged ? a.ged < b.ged : a.id < b.id;
              });
    if (static_cast<int>(res.hits.size()) > kk) res.hits.resize(kk);
    for (const auto& ws : worker_stats) res.stats.cascade.Merge(ws[u]);
    // Fold the candidates phase A's bound matrix screened out into the
    // stats so they describe the query — and mirror the fold into the
    // global counters so Prometheus totals keep reconciling with summed
    // QueryStats.
    res.stats.cascade.candidates += screened[u];
    res.stats.cascade.pruned_invariant += screened[u];
    OTGED_COUNT_N("otged_cascade_candidates_total",
                  "candidate pairs fed into the filter cascade",
                  screened[u]);
    OTGED_COUNT_N("otged_cascade_pruned_total{tier=\"invariant\"}",
                  "pairs dismissed by an admissible lower bound at this "
                  "tier",
                  screened[u]);
    res.stats.wall_ms = wall_clock.WallMs(u, wall);
    res.stats.epoch = snap->epoch();
    res.stats.trace_id = ctx[u].trace_id;
    OTGED_HIST_RECORD("otged_query_latency_us{kind=\"topk\"}",
                      "per-query serving latency",
                      std::lround(res.stats.wall_ms * 1000.0));
  }
  for (int q = 0; q < nq; ++q) out[q] = uniq_res[uniq_of[q]];
  return out;
}

RangeResult QueryEngine::Range(const Graph& query, int tau) const {
  MutexLock serve_lock(serve_mu_);
  return std::move(RangeBatchLocked({&query}, tau).front());
}

TopKResult QueryEngine::TopK(const Graph& query, int k) const {
  MutexLock serve_lock(serve_mu_);
  return std::move(TopKBatchLocked({&query}, k).front());
}

std::vector<RangeResult> QueryEngine::RangeBatch(
    const std::vector<Graph>& queries, int tau) const {
  MutexLock serve_lock(serve_mu_);
  std::vector<const Graph*> ptrs;
  ptrs.reserve(queries.size());
  for (const Graph& q : queries) ptrs.push_back(&q);
  return RangeBatchLocked(ptrs, tau);
}

std::vector<TopKResult> QueryEngine::TopKBatch(
    const std::vector<Graph>& queries, int k) const {
  MutexLock serve_lock(serve_mu_);
  std::vector<const Graph*> ptrs;
  ptrs.reserve(queries.size());
  for (const Graph& q : queries) ptrs.push_back(&q);
  return TopKBatchLocked(ptrs, k);
}

}  // namespace otged
