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
  QueryWallClock() = default;
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
  size_t nu_ = 0;
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

/// Merges a top-k level's ascending candidate slots into a query's
/// ascending (slot, proven lower bound) list. A newly admitted graph
/// starts at `level`: the index dismissed it one level lower, which
/// proves GED >= level. Slots admitted earlier keep their bound, also
/// when the index does not return them again (its tau == 0 WL-prefix
/// table can admit a graph that the label walk at tau 1 dismisses).
void Admit(const std::vector<int>& cand, int level,
           std::vector<std::pair<int, int>>* admitted) {
  const std::vector<std::pair<int, int>> old = std::move(*admitted);
  admitted->clear();
  size_t a = 0;
  for (const int slot : cand) {
    while (a < old.size() && old[a].first < slot)
      admitted->push_back(old[a++]);
    if (a < old.size() && old[a].first == slot)
      admitted->push_back(old[a++]);
    else
      admitted->emplace_back(slot, level);
  }
  admitted->insert(admitted->end(), old.begin() + static_cast<long>(a),
                   old.end());
}

}  // namespace

/// One serving call's set-up, shared by range and top-k: the pinned
/// snapshot and its index view, the call's distinct queries with their
/// contexts, and per-distinct-query clocks and statistics.
struct QueryEngine::Call {
  std::chrono::steady_clock::time_point start;
  std::shared_ptr<const StoreSnapshot> snap;
  std::shared_ptr<const IndexView> iview;  ///< null without an index
  std::vector<const Graph*> queries;       ///< distinct queries
  std::vector<int> uniq_of;                ///< call query -> distinct query
  std::vector<QueryContext> ctx;
  QueryWallClock wall_clock;
  std::vector<CascadeStats> cascade;
  std::vector<IndexStats> index;

  int Size() const { return static_cast<int>(queries.size()); }
};

QueryEngine::QueryEngine(const GraphStore* store, const EngineOptions& opt)
    : store_(store), cascade_(opt.cascade), use_cache_(opt.use_bound_cache) {
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
  // The lineage is read off the pinned snapshot itself, so a Restore
  // landing after the pin is seen by the next call, which also flushes
  // whatever this call caches against the older binding.
  auto snap = store_->Snapshot();
  if (use_cache_ && snap->lineage() != cache_lineage_) {
    cache_.Clear();
    cache_lineage_ = snap->lineage();
  }
  return snap;
}

CascadeVerdict QueryEngine::EvalPair(const Graph& query,
                                     const QueryContext& qc,
                                     const StoreSnapshot& snap, int slot,
                                     int tau, CascadeStats* stats) const {
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
      v.lb = *ged;
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
      /*need_distance=*/false, stats, tracing ? &probe : nullptr);
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

QueryEngine::Call QueryEngine::BeginCall(
    const std::vector<const Graph*>& queries) const {
  Call c;
  c.start = std::chrono::steady_clock::now();
  c.snap = PinSnapshot();
  if (index_ != nullptr && c.snap->Size() > 0)
    c.iview = index_->ViewFor(c.snap);
  std::vector<uint64_t> fp(queries.size());
  for (size_t q = 0; q < queries.size(); ++q)
    fp[q] = GraphContentFingerprint(*queries[q]);
  const std::vector<int> uniq = DedupByFingerprint(queries, fp, &c.uniq_of);
  const int nu = static_cast<int>(uniq.size());
  const uint64_t trace_base = NextTraceIds(nu);
  for (int u = 0; u < nu; ++u) {
    c.queries.push_back(queries[uniq[u]]);
    c.ctx.push_back({ComputeInvariants(*queries[uniq[u]]), fp[uniq[u]],
                     trace_base + static_cast<uint64_t>(u)});
  }
  c.wall_clock = QueryWallClock(pool_->num_threads(), nu, c.start);
  c.cascade.resize(nu);
  c.index.resize(nu);
  return c;
}

std::vector<std::vector<int>> QueryEngine::Candidates(
    Call* c, const std::vector<int>& us, const std::vector<int>& tau) const {
  // Index pruning is by admissible bounds only, so the surviving set is a
  // superset of the true hits and the cascade's own tier 0 re-screens
  // each survivor — results are byte-identical with or without it.
  std::vector<std::vector<int>> cand(us.size());
  if (c->iview == nullptr) {
    for (std::vector<int>& slots : cand) {
      slots.resize(static_cast<size_t>(c->snap->Size()));
      std::iota(slots.begin(), slots.end(), 0);
    }
    return cand;
  }
  pool_->ParallelFor(static_cast<int64_t>(us.size()), /*grain=*/1,
                     [&](int64_t i, int worker) {
                       const int u = us[i];
                       std::vector<int> ids;
                       c->iview->RangeCandidates(c->ctx[u].qi, tau[u], &ids,
                                                 &c->index[u]);
                       cand[i].reserve(ids.size());
                       for (const int id : ids)
                         cand[i].push_back(c->snap->SlotOf(id));
                       c->wall_clock.MarkDone(worker, u);
                     });
  return cand;
}

std::vector<CascadeVerdict> QueryEngine::EvalPairs(
    Call* c, const std::vector<std::pair<int, int>>& tasks,
    const std::vector<int>& tau) const {
  std::vector<CascadeVerdict> verdicts(tasks.size());
  std::vector<std::vector<CascadeStats>> worker_stats(
      pool_->num_threads(), std::vector<CascadeStats>(c->Size()));
  pool_->ParallelFor(static_cast<int64_t>(tasks.size()), /*grain=*/4,
                     [&](int64_t t, int worker) {
                       const auto [u, slot] = tasks[t];
                       verdicts[t] = EvalPair(*c->queries[u], c->ctx[u],
                                              *c->snap, slot, tau[u],
                                              &worker_stats[worker][u]);
                       c->wall_clock.MarkDone(worker, u);
                     });
  for (const auto& ws : worker_stats)
    for (int u = 0; u < c->Size(); ++u) c->cascade[u].Merge(ws[u]);
  return verdicts;
}

QueryStats QueryEngine::FinishQuery(const Call& c, int u, long admitted,
                                    double call_ms) const {
  QueryStats s;
  s.cascade = c.cascade[u];
  s.index = c.index[u];
  // Fold index-dismissed graphs into the stats (and mirror into the
  // global counters) so every graph of the snapshot is a candidate and
  // SettledTotal == candidates keeps reconciling.
  const long pruned = static_cast<long>(c.snap->Size()) - admitted;
  if (pruned > 0) {
    s.cascade.candidates += pruned;
    s.cascade.pruned_index += pruned;
    OTGED_COUNT_N("otged_cascade_candidates_total",
                  "candidate pairs fed into the filter cascade", pruned);
    OTGED_COUNT_N("otged_cascade_pruned_total{tier=\"index\"}",
                  "pairs dismissed by the candidate index before the "
                  "cascade",
                  pruned);
  }
  s.wall_ms = c.wall_clock.WallMs(u, call_ms);
  s.epoch = c.snap->epoch();
  s.trace_id = c.ctx[u].trace_id;
  return s;
}

std::vector<RangeResult> QueryEngine::RangeBatchLocked(
    const std::vector<const Graph*>& queries, int tau) const {
  Call c = BeginCall(queries);
  const int nu = c.Size();
  std::vector<int> all(nu);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<int> taus(nu, tau);
  const std::vector<std::vector<int>> cand = Candidates(&c, all, taus);
  std::vector<std::pair<int, int>> tasks;  ///< (distinct query, slot)
  for (int u = 0; u < nu; ++u)
    for (const int slot : cand[u]) tasks.emplace_back(u, slot);
  const std::vector<CascadeVerdict> verdicts = EvalPairs(&c, tasks, taus);
  const double wall = ElapsedMs(c.start);
  OTGED_COUNT_N("otged_queries_total{kind=\"range\"}",
                "range queries served", queries.size());
  OTGED_HIST_RECORD("otged_batch_latency_us{kind=\"range\"}",
                    "wall time of one serving call (single or batch)",
                    std::lround(wall * 1000.0));

  std::vector<RangeResult> uniq_res(nu);
  for (size_t t = 0; t < tasks.size(); ++t) {
    const auto [u, slot] = tasks[t];
    const CascadeVerdict& v = verdicts[t];
    if (v.within)
      uniq_res[u].hits.push_back(
          {c.snap->id(slot), v.ged, v.exact_distance, v.lb});
  }
  for (int u = 0; u < nu; ++u) {
    RangeResult& res = uniq_res[u];
    res.stats = FinishQuery(c, u, static_cast<long>(cand[u].size()), wall);
    OTGED_HIST_RECORD("otged_query_latency_us{kind=\"range\"}",
                      "per-query serving latency",
                      std::lround(res.stats.wall_ms * 1000.0));
  }
  std::vector<RangeResult> out(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) out[q] = uniq_res[c.uniq_of[q]];
  return out;
}

std::vector<TopKResult> QueryEngine::TopKBatchLocked(
    const std::vector<const Graph*>& queries, int k) const {
  Call c = BeginCall(queries);
  const int n = c.snap->Size();
  const int nu = c.Size();
  const int kk = std::min(k, n);
  constexpr int kSettled = std::numeric_limits<int>::max();
  // Per distinct query: its level, and every slot the index admitted so
  // far (ascending) with the pair's proven lower bound, kSettled once the
  // pair is a hit.
  std::vector<int> level(nu, 0);
  std::vector<std::vector<std::pair<int, int>>> admitted(nu);
  std::vector<TopKResult> uniq_res(nu);
  std::vector<int> active;
  for (int u = 0; kk > 0 && u < nu; ++u) active.push_back(u);
  while (!active.empty()) {
    std::vector<int> admitting;
    for (const int u : active)
      if (static_cast<int>(admitted[u].size()) < n) admitting.push_back(u);
    const std::vector<std::vector<int>> cand =
        Candidates(&c, admitting, level);
    for (size_t i = 0; i < admitting.size(); ++i)
      Admit(cand[i], level[admitting[i]], &admitted[admitting[i]]);

    std::vector<std::pair<int, int>> tasks;  ///< (distinct query, slot)
    std::vector<int*> bound;                 ///< the task's admitted lb
    for (const int u : active) {
      for (auto& [slot, lb] : admitted[u]) {
        if (lb != level[u]) continue;
        tasks.emplace_back(u, slot);
        bound.push_back(&lb);
      }
    }
    const std::vector<CascadeVerdict> verdicts = EvalPairs(&c, tasks, level);
    for (size_t t = 0; t < tasks.size(); ++t) {
      const auto [u, slot] = tasks[t];
      const CascadeVerdict& v = verdicts[t];
      int& lb = *bound[t];
      if (!v.within) {
        OTGED_DCHECK(v.lb > level[u]);
        lb = v.lb;
        continue;
      }
      // GED >= level is proven, so a distance within the level is exact.
      // Otherwise the pair was kept unproven (its search ran out of
      // budget, or it is over kMaxExactNodes): [level, ged].
      OTGED_DCHECK(v.ged >= level[u]);
      const bool exact = v.ged <= level[u];
      uniq_res[u].hits.push_back({c.snap->id(slot), v.ged, exact, level[u]});
      lb = kSettled;
    }

    std::vector<int> next;
    for (const int u : active) {
      if (static_cast<int>(uniq_res[u].hits.size()) >= kk) continue;
      int to = level[u] + 1;
      if (static_cast<int>(admitted[u].size()) == n) {
        to = kSettled;
        for (const auto& [slot, lb] : admitted[u]) to = std::min(to, lb);
        OTGED_DCHECK(to > level[u] && to < kSettled);
      }
      level[u] = to;
      next.push_back(u);
    }
    active = std::move(next);
  }
  const double wall = ElapsedMs(c.start);
  OTGED_COUNT_N("otged_queries_total{kind=\"topk\"}",
                "top-k queries served", queries.size());
  OTGED_HIST_RECORD("otged_batch_latency_us{kind=\"topk\"}",
                    "wall time of one serving call (single or batch)",
                    std::lround(wall * 1000.0));

  for (int u = 0; u < nu; ++u) {
    TopKResult& res = uniq_res[u];
    std::sort(res.hits.begin(), res.hits.end(),
              [](const TopKHit& a, const TopKHit& b) {
                return a.lb != b.lb ? a.lb < b.lb : a.id < b.id;
              });
    if (static_cast<int>(res.hits.size()) > kk) res.hits.resize(kk);
    // k <= 0 asks for nothing, so no graph was considered.
    const long considered = kk > 0 ? static_cast<long>(admitted[u].size())
                                   : static_cast<long>(n);
    res.stats = FinishQuery(c, u, considered, wall);
    OTGED_HIST_RECORD("otged_query_latency_us{kind=\"topk\"}",
                      "per-query serving latency",
                      std::lround(res.stats.wall_ms * 1000.0));
  }
  std::vector<TopKResult> out(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) out[q] = uniq_res[c.uniq_of[q]];
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
