#include "exact/parallel_bnb.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "exact/search_common.hpp"

namespace otged {

using internal::DfsState;
using internal::Searcher;

namespace {

/// One root subtree: a mapping prefix, the do/undo state replayed to it,
/// and an explicit resumable DFS stack so a worker can advance the
/// subtree by a bounded expansion quota and suspend. All fields are
/// owned by exactly one worker within a round (subtrees are distributed
/// one per ParallelFor index), so none of them need synchronization.
struct Subtree {
  struct Frame {
    std::vector<int> kids;  ///< RankChildren keys, (delta, v) ascending
    size_t next = 0;        ///< next child to consume
  };

  /// RankChildren keys of the G2 choices for order[0..depth_of_prefix).
  std::vector<int> prefix;
  DfsState state;            ///< positioned at the node owning stack.back()
  std::vector<Frame> stack;  ///< frames root..current, empty before start
  bool started = false;
  bool done = false;
  long expansions = 0;        ///< lifetime expansions in this subtree
  long slice_expansions = 0;  ///< consumed in the current round
  int local_best = std::numeric_limits<int>::max();  ///< best leaf total
  bool local_found = false;
  NodeMatching local_matching;
};

/// Publishes a leaf cost into the pending incumbent via CAS-min. Relaxed
/// ordering suffices: the value is folded by the driver after the
/// ParallelFor barrier, which already orders the accesses.
// otged-lint: hot-path
void PublishPending(std::atomic<int>* pending, int total) {
  int cur = pending->load(std::memory_order_relaxed);
  while (total < cur &&
         !pending->compare_exchange_weak(cur, total,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
  }
}

/// Advances one subtree by at most `quota` expansions. Every prune point
/// reads the round-stable incumbent: the driver only writes it between
/// rounds (the pool's barrier orders those writes), so the loads are
/// race-free within a round and every subtree prunes against the same
/// deterministic bound regardless of which thread runs it, or when —
/// the PASGAL iteration-stable discipline.
// otged-lint: hot-path
void RunSlice(const Searcher& searcher, Subtree* t, long quota,
              const std::atomic<int>& incumbent, std::atomic<int>* pending) {
  const int n1 = searcher.ctx().n1;
  DfsState& s = t->state;
  long used_quota = 0;
  const auto bound = [&]() {
    return std::min(incumbent.load(std::memory_order_relaxed),
                    t->local_best);
  };
  const auto record_leaf = [&](int total) {
    t->local_best = total;
    t->local_found = true;
    t->local_matching = searcher.ExtractMatching(s);
    PublishPending(pending, total);
  };
  const auto expand_current = [&]() {
    ++used_quota;
    ++t->expansions;
    t->stack.emplace_back();
    searcher.RankChildren(s, bound(), &t->stack.back().kids);
  };

  if (!t->started) {
    t->started = true;
    if (s.depth == n1) {
      // Degenerate subtree: the prefix is already a complete mapping.
      const int total = s.g + searcher.HeuristicOf(s);
      if (total < bound()) record_leaf(total);
      t->done = true;
      t->slice_expansions = 0;
      return;
    }
    expand_current();
  }

  while (!t->done && used_quota < quota) {
    Subtree::Frame& fr = t->stack.back();
    if (fr.next == fr.kids.size()) {
      t->stack.pop_back();
      if (t->stack.empty()) {
        t->done = true;
        break;
      }
      searcher.Pop(&s);
      continue;
    }
    const int key = fr.kids[fr.next++];
    const int delta = Searcher::KeyDelta(key), v = Searcher::KeyNode(key);
    const int b = bound();
    if (s.g + delta >= b) continue;  // cheap pre-prune
    searcher.Push(&s, v, delta);
    const int f = s.g + searcher.HeuristicOf(s);
    if (f >= b) {  // admissible prune
      searcher.Pop(&s);
      continue;
    }
    if (s.depth == n1) {
      // f == total at leaves; f < b <= local_best, so always record.
      record_leaf(f);
      searcher.Pop(&s);
      continue;
    }
    expand_current();
  }
  t->slice_expansions = used_quota;
}

/// Per-pair state of a (possibly batched) run: the per-pair phases of the
/// solo driver factored into Prepare (seed + frontier + subtree replay)
/// and Finalize (merge + stats), with the round loop driven externally so
/// a batch can interleave many pairs' subtrees over one pool. Every
/// round-loop decision for a pair (quota, live set, incumbent folds) is
/// computed from that pair's own deterministic quantities only, so each
/// pair's result is byte-identical to its solo run — for any pool thread
/// count and any batch composition.
struct PairRun {
  PairRun(const Graph& a, const Graph& b, const ParallelBnbOptions& o)
      : g1(&a), g2(&b), opt(o), searcher(a, b) {}
  PairRun(const PairRun&) = delete;
  PairRun& operator=(const PairRun&) = delete;

  const Graph* g1;
  const Graph* g2;
  ParallelBnbOptions opt;
  Searcher searcher;
  GedSearchResult res;
  std::vector<Subtree> subs;
  std::atomic<int> incumbent{0};  ///< round-stable prune bound
  std::atomic<int> pending{0};    ///< CAS-min improvement inbox
  std::vector<int> live;
  long expansions = 0;
  long remaining = 0;
  long rounds = 0;
  long incumbent_updates = 0;
  bool complete = true;
  bool active = false;  ///< still participates in the round loop

  void Prepare();
  void Finalize(ParallelBnbStats* stats);
};

void PairRun::Prepare() {
  const int n1 = searcher.ctx().n1;

  // Initial upper bound: identity-order greedy matching (always
  // feasible), tightened by the caller's hint — same seed as the
  // sequential driver.
  int ub = opt.initial_upper_bound;
  NodeMatching greedy(static_cast<size_t>(n1));
  for (int i = 0; i < n1; ++i) greedy[i] = i;
  const int greedy_cost = EditCostFromMatching(*g1, *g2, greedy);
  if (ub < 0 || greedy_cost < ub) ub = greedy_cost;
  const int bound0 = ub + 1;  // strict-improvement bound, explores == ub

  res.ged = greedy_cost;
  res.matching = greedy;
  res.exact = true;
  res.expansions = 0;
  if (n1 == 0) return;  // single leaf, greedy == the empty mapping

  // ---- frontier: breadth-first expansion to a fixed target size ------
  // Level-granular (a whole depth at a time) and pruned only against the
  // seed bound, so the decomposition is a pure function of the input.
  std::vector<std::vector<int>> frontier(1);
  {
    DfsState s = searcher.MakeDfs();
    std::vector<int> kids;
    int depth = 0;
    while (depth < n1 &&
           static_cast<int>(frontier.size()) < opt.target_subtrees &&
           !frontier.empty()) {
      std::vector<std::vector<int>> next;
      for (const std::vector<int>& prefix : frontier) {
        for (const int key : prefix)
          searcher.Push(&s, Searcher::KeyNode(key), Searcher::KeyDelta(key));
        ++expansions;
        searcher.RankChildren(s, bound0, &kids);
        for (const int key : kids) {
          std::vector<int> p = prefix;
          p.push_back(key);
          next.push_back(std::move(p));
        }
        for (size_t i = 0; i < prefix.size(); ++i) searcher.Pop(&s);
      }
      frontier = std::move(next);
      ++depth;
    }
  }
  if (frontier.empty()) {
    // Every depth-`depth` extension exceeded the seed bound, so no
    // completion beats ub: the greedy/hinted seed already is optimal.
    // `active` stays false; Finalize reports the seed with zero stats.
    return;
  }

  subs.resize(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    subs[i].prefix = std::move(frontier[i]);
    subs[i].state = searcher.MakeDfs();
    for (const int key : subs[i].prefix)
      searcher.Push(&subs[i].state, Searcher::KeyNode(key),
                    Searcher::KeyDelta(key));
  }

  incumbent.store(bound0, std::memory_order_relaxed);
  pending.store(bound0, std::memory_order_relaxed);
  live.resize(subs.size());
  std::iota(live.begin(), live.end(), 0);
  remaining = opt.max_expansions - expansions;
  active = true;
}

void PairRun::Finalize(ParallelBnbStats* stats) {
  // ---- deterministic merge: argmin by (ged, lexicographic matching) --
  int best = std::numeric_limits<int>::max();
  const NodeMatching* best_matching = nullptr;
  for (const Subtree& t : subs) {
    if (!t.local_found) continue;
    if (best_matching == nullptr || t.local_best < best ||
        (t.local_best == best && t.local_matching < *best_matching)) {
      best = t.local_best;
      best_matching = &t.local_matching;
    }
  }
  if (best_matching != nullptr) {
    res.ged = best;  // best < bound0, i.e. <= ub: strictly proven better
    res.matching = *best_matching;
  }
  res.exact = complete;
  res.expansions = expansions;
  if (stats != nullptr && searcher.ctx().n1 > 0) {
    stats->subtrees = static_cast<long>(subs.size());
    stats->rounds = rounds;
    stats->incumbent_updates = incumbent_updates;
  }
}

/// The shared round loop. Each global round advances EVERY active pair by
/// exactly one of its own rounds: the pair's quota is computed from its
/// own (remaining, live) exactly as the solo loop head does, then all
/// pairs' live subtrees are flattened into one worklist and advanced by a
/// single ParallelFor — so a pair whose frontier has collapsed to a few
/// stragglers no longer leaves the pool idle; other pairs' subtrees fill
/// the slots. Subtrees of different pairs never touch each other's
/// incumbent/pending, and the barrier between global rounds is also a
/// barrier between each pair's rounds, so per-pair evolution — and hence
/// the per-pair result — is identical to a solo run.
void RunRounds(const std::vector<PairRun*>& runs, WorkStealingPool* pool) {
  struct Item {
    PairRun* pr;
    int sub;
    long quota;
  };
  std::vector<Item> work;
  std::vector<PairRun*> in_round;
  for (;;) {
    work.clear();
    in_round.clear();
    for (PairRun* pr : runs) {
      if (!pr->active) continue;
      // Per-pair replica of the solo loop head: exit on an exhausted
      // frontier, or mark incomplete on an exhausted budget.
      if (pr->live.empty()) {
        pr->active = false;
        continue;
      }
      if (pr->remaining <= 0) {
        pr->complete = false;
        pr->active = false;
        continue;
      }
      // Deterministic per-round quota: share the pair's remaining budget
      // across its live subtrees, clamped to [1, round_quota].
      const long quota = std::max(
          long{1},
          std::min(pr->remaining / static_cast<long>(pr->live.size()),
                   pr->opt.round_quota));
      for (const int idx : pr->live) work.push_back({pr, idx, quota});
      in_round.push_back(pr);
    }
    if (work.empty()) break;
    const auto slice = [&](int64_t i, int) {
      const Item& it = work[static_cast<size_t>(i)];
      RunSlice(it.pr->searcher, &it.pr->subs[static_cast<size_t>(it.sub)],
               it.quota, it.pr->incumbent, &it.pr->pending);
    };
    if (pool != nullptr) {
      pool->ParallelFor(static_cast<int64_t>(work.size()), /*grain=*/1,
                        slice);
    } else {
      for (size_t i = 0; i < work.size(); ++i)
        slice(static_cast<int64_t>(i), 0);
    }
    for (PairRun* pr : in_round) {
      ++pr->rounds;
      std::vector<int> next_live;
      for (const int idx : pr->live) {
        Subtree& t = pr->subs[static_cast<size_t>(idx)];
        pr->expansions += t.slice_expansions;
        pr->remaining -= t.slice_expansions;
        t.slice_expansions = 0;
        if (!t.done) next_live.push_back(idx);
      }
      pr->live = std::move(next_live);
      // Fold pending improvements into the stable incumbent. The pending
      // value at a barrier is the min over everything published this
      // round — commutative, hence deterministic.
      const int p = pr->pending.load(std::memory_order_relaxed);
      if (p < pr->incumbent.load(std::memory_order_relaxed)) {
        pr->incumbent.store(p, std::memory_order_relaxed);
        ++pr->incumbent_updates;
      }
    }
  }
}

}  // namespace

GedSearchResult ParallelBranchAndBoundGed(const Graph& g1, const Graph& g2,
                                          WorkStealingPool* pool,
                                          const ParallelBnbOptions& opt,
                                          ParallelBnbStats* stats) {
  OTGED_CHECK(g1.NumNodes() <= g2.NumNodes());
  PairRun run(g1, g2, opt);
  run.Prepare();
  RunRounds({&run}, pool);
  run.Finalize(stats);
  return std::move(run.res);
}

std::vector<GedSearchResult> ParallelBranchAndBoundGedBatch(
    const std::vector<ParallelBnbBatchItem>& items, WorkStealingPool* pool,
    std::vector<ParallelBnbStats>* stats) {
  std::vector<std::unique_ptr<PairRun>> runs;
  runs.reserve(items.size());
  for (const ParallelBnbBatchItem& it : items) {
    OTGED_CHECK(it.g1 != nullptr && it.g2 != nullptr);
    OTGED_CHECK(it.g1->NumNodes() <= it.g2->NumNodes());
    runs.push_back(std::make_unique<PairRun>(*it.g1, *it.g2, it.opt));
  }
  // The per-pair preamble (greedy seed + frontier build + prefix replay)
  // is independent across pairs and deterministic, so distribute it over
  // the pool one pair per index.
  const auto prep = [&](int64_t i, int) {
    runs[static_cast<size_t>(i)]->Prepare();
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int64_t>(runs.size()), /*grain=*/1, prep);
  } else {
    for (size_t i = 0; i < runs.size(); ++i) prep(static_cast<int64_t>(i), 0);
  }
  std::vector<PairRun*> ptrs;
  ptrs.reserve(runs.size());
  for (const auto& r : runs) ptrs.push_back(r.get());
  RunRounds(ptrs, pool);
  if (stats != nullptr) stats->assign(items.size(), ParallelBnbStats{});
  std::vector<GedSearchResult> out;
  out.reserve(items.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i]->Finalize(stats != nullptr ? &(*stats)[i] : nullptr);
    out.push_back(std::move(runs[i]->res));
  }
  return out;
}

}  // namespace otged
