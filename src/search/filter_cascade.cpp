#include "search/filter_cascade.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exact/branch_and_bound.hpp"
#include "heuristics/bipartite.hpp"
#include "heuristics/lower_bounds.hpp"
#include "telemetry/metrics.hpp"

namespace otged {

void CascadeStats::Merge(const CascadeStats& o) {
  candidates += o.candidates;
  pruned_index += o.pruned_index;
  pruned_invariant += o.pruned_invariant;
  passed_invariant += o.passed_invariant;
  pruned_branch += o.pruned_branch;
  decided_heuristic += o.decided_heuristic;
  decided_exact += o.decided_exact;
  exact_calls += o.exact_calls;
  exact_incomplete += o.exact_incomplete;
  cache_hits += o.cache_hits;
}

double CascadeStats::PrunedBeforeSolvers() const {
  if (candidates == 0) return 0.0;
  return static_cast<double>(pruned_index + pruned_invariant +
                             pruned_branch) /
         static_cast<double>(candidates);
}

FilterCascade::FilterCascade(const CascadeOptions& opt) : opt_(opt) {}

#if OTGED_TELEMETRY_COMPILED
namespace {

/// All cascade metric handles, resolved once. A plain OTGED_COUNT macro
/// would pin the *first* name it sees per call site, so tier-indexed
/// metrics are looked up here instead.
struct CascadeMetrics {
  telemetry::Counter* candidates;
  telemetry::Counter* pruned[2];     ///< tier 0 (invariant), tier 1 (branch)
  telemetry::Counter* passed_invariant;
  telemetry::Counter* decided[5];    ///< by deciding tier: [2] and [4]
  telemetry::Counter* escalated[5];  ///< by tier entered: [1], [2], [4]
  telemetry::Counter* exact_calls;
  telemetry::Counter* exact_incomplete;
  telemetry::Histogram* tier_latency[5];  ///< by CascadeTier, [3] null
};

const CascadeMetrics& Metrics() {
  static const CascadeMetrics* m = [] {
    auto* mm = new CascadeMetrics{};
    auto& reg = telemetry::Registry();
    static const char* kTier[5] = {"invariant", "branch", "heuristic",
                                   nullptr, "exact"};
    mm->candidates =
        &reg.GetCounter("otged_cascade_candidates_total",
                        "candidate pairs fed into the filter cascade");
    for (int t : {0, 1})
      mm->pruned[t] = &reg.GetCounter(
          std::string("otged_cascade_pruned_total{tier=\"") + kTier[t] +
              "\"}",
          "pairs dismissed by an admissible lower bound at this tier");
    mm->passed_invariant = &reg.GetCounter(
        "otged_cascade_passed_total{tier=\"invariant\"}",
        "pairs settled by the tier-0 identity fast path (GED == 0)");
    for (int t : {2, 4})
      mm->decided[t] = &reg.GetCounter(
          std::string("otged_cascade_decided_total{tier=\"") + kTier[t] +
              "\"}",
          "pairs whose membership or distance this tier settled");
    for (int t : {1, 2, 4})
      mm->escalated[t] = &reg.GetCounter(
          std::string("otged_cascade_escalated_total{to=\"") + kTier[t] +
              "\"}",
          "pairs the previous tiers could not settle");
    mm->exact_calls = &reg.GetCounter("otged_cascade_exact_calls_total",
                                      "branch-and-bound invocations");
    mm->exact_incomplete =
        &reg.GetCounter("otged_cascade_exact_incomplete_total",
                        "exact runs that exhausted their visit budget");
    for (int t : {0, 1, 2, 4})
      mm->tier_latency[t] = &reg.GetHistogram(
          std::string("otged_cascade_tier_latency_us{tier=\"") + kTier[t] +
              "\"}",
          "wall time spent inside this tier per pair that entered it");
    return mm;
  }();
  return *m;
}

}  // namespace
#endif  // OTGED_TELEMETRY_COMPILED

CascadeVerdict FilterCascade::BoundedDistance(
    const Graph& query, const GraphInvariants& qi, const Graph& g,
    const GraphInvariants& gi, int tau, [[maybe_unused]] bool need_distance,
    CascadeStats* stats, CascadeProbe* probe) const {
  OTGED_DCHECK(!need_distance);
  OTGED_DCHECK(stats != nullptr);
  stats->candidates++;
#if OTGED_TELEMETRY_COMPILED
  const bool metered = telemetry::Enabled();
  if (metered) Metrics().candidates->Inc();
#else
  constexpr bool metered = false;
#endif
  const bool timed = probe != nullptr || metered;
  double tier_us[5] = {0, 0, 0, 0, 0};
  double t_prev = timed ? telemetry::NowUs() : 0.0;
  // Charges the wall time since the previous mark to `tier`.
  auto mark = [&](CascadeTier tier) {
    if (!timed) return;
    const double now = telemetry::NowUs();
    tier_us[static_cast<int>(tier)] += now - t_prev;
    t_prev = now;
  };
  int best_lb = -1, best_ub = -1;
  long exact_expansions = 0;
  auto finish = [&](CascadeVerdict v) {
    v.lb = best_lb;
    if (probe != nullptr) {
      probe->lb = best_lb;
      probe->ub = best_ub;
      probe->exact_expansions = exact_expansions;
      std::copy(tier_us, tier_us + 5, probe->tier_us);
    }
#if OTGED_TELEMETRY_COMPILED
    if (metered) {
      for (int t = 0; t < 5; ++t)
        if (tier_us[t] > 0.0)
          Metrics().tier_latency[t]->Record(std::lround(tier_us[t]));
    }
#endif
    return v;
  };
  CascadeVerdict v;

  // --- tier 0: invariants only, no adjacency access --------------------
  int lb = InvariantLowerBound(qi, gi);
  best_lb = lb;
  if (lb > tau) {
    stats->pruned_invariant++;
#if OTGED_TELEMETRY_COMPILED
    if (metered) Metrics().pruned[0]->Inc();
#endif
    v.tier = CascadeTier::kInvariant;
    mark(CascadeTier::kInvariant);
    return finish(v);
  }
  if (lb == 0 && qi.wl_hash == gi.wl_hash && query == g) {
    // Identity fast path (node-identity equality implies GED == 0).
    stats->passed_invariant++;
#if OTGED_TELEMETRY_COMPILED
    if (metered) Metrics().passed_invariant->Inc();
#endif
    v.within = true;
    v.ged = 0;
    v.exact_distance = true;
    v.tier = CascadeTier::kInvariant;
    best_ub = 0;
    mark(CascadeTier::kInvariant);
    return finish(v);
  }
  mark(CascadeTier::kInvariant);

  auto [g1, g2] = OrderBySize(query, g);

  // --- tier 1: BRANCH bipartite lower bound ----------------------------
  if (opt_.use_branch_bound) {
#if OTGED_TELEMETRY_COMPILED
    if (metered) Metrics().escalated[1]->Inc();
#endif
    lb = std::max(lb, static_cast<int>(
                          std::ceil(BranchLowerBound(*g1, *g2) - 1e-9)));
    best_lb = lb;
    if (lb > tau) {
      stats->pruned_branch++;
#if OTGED_TELEMETRY_COMPILED
      if (metered) Metrics().pruned[1]->Inc();
#endif
      v.tier = CascadeTier::kBranch;
      mark(CascadeTier::kBranch);
      return finish(v);
    }
    mark(CascadeTier::kBranch);
  }

  // --- tier 2: Classic heuristic upper bound ---------------------------
#if OTGED_TELEMETRY_COMPILED
  if (metered) Metrics().escalated[2]->Inc();
#endif
  const int ub = ClassicGed(*g1, *g2).ged;
  best_ub = ub;
  if (lb == ub) {
    // Certificate: admissible LB meets feasible UB, distance is exact.
    stats->decided_heuristic++;
#if OTGED_TELEMETRY_COMPILED
    if (metered) Metrics().decided[2]->Inc();
#endif
    v.within = ub <= tau;
    v.ged = ub;
    v.exact_distance = true;
    v.tier = CascadeTier::kHeuristic;
    mark(CascadeTier::kHeuristic);
    return finish(v);
  }
  if (ub <= tau) {
    // The feasible edit path already witnesses membership.
    stats->decided_heuristic++;
#if OTGED_TELEMETRY_COMPILED
    if (metered) Metrics().decided[2]->Inc();
#endif
    v.within = true;
    v.ged = ub;
    v.tier = CascadeTier::kHeuristic;
    mark(CascadeTier::kHeuristic);
    return finish(v);
  }
  mark(CascadeTier::kHeuristic);

  // --- tier 4: exact verify (branch and bound) ------------------------
  // Seeded with the tier-2 UB and thresholded at tau (here tau < ub): the
  // question is only whether GED <= tau.
  stats->exact_calls++;
#if OTGED_TELEMETRY_COMPILED
  if (metered) {
    Metrics().escalated[4]->Inc();
    Metrics().exact_calls->Inc();
  }
#endif
  GedSearchResult exact = ExactSearch(*g1, *g2, opt_.exact_budget, ub, tau);
  exact_expansions = exact.expansions;
  stats->decided_exact++;
#if OTGED_TELEMETRY_COMPILED
  if (metered) Metrics().decided[4]->Inc();
#endif
  best_ub = exact.ged;
  v.tier = CascadeTier::kExact;
  if (exact.above_threshold) {
    // The exhausted tree proves GED > tau: a dismissal, like an LB's.
    best_lb = tau + 1;
    mark(CascadeTier::kExact);
    return finish(v);
  }
  if (exact.exact) {
    best_lb = exact.ged;
  } else {
    stats->exact_incomplete++;
#if OTGED_TELEMETRY_COMPILED
    if (metered) Metrics().exact_incomplete->Inc();
#endif
  }
  // On budget exhaustion `exact.ged` is only a feasible upper bound, and
  // nothing proves GED > tau. Keep the candidate (no false dismissals,
  // ever) and flag the distance as unproven.
  v.within = exact.ged <= tau || !exact.exact;
  v.ged = exact.ged;
  v.exact_distance = exact.exact;
  mark(CascadeTier::kExact);
  return finish(v);
}

GedSearchResult FilterCascade::ExactSearch(const Graph& g1, const Graph& g2,
                                           long budget,
                                           int initial_upper_bound,
                                           int threshold) const {
  if (g2.NumNodes() <= kMaxExactNodes) {
    BnbOptions bnb;
    bnb.max_visits = budget;
    bnb.initial_upper_bound = initial_upper_bound;
    bnb.threshold = threshold;
    return BranchAndBoundGed(g1, g2, bnb);
  }
  // Too large for the solver (it keeps G2's used nodes in one 64-bit
  // mask): the best upper bound, unproven, after 0 expansions — the seed,
  // or the identity matching's cost (with the matching as its witness)
  // when there is no seed or the identity is cheaper. Nothing is searched,
  // so nothing is proven about the threshold either.
  GedSearchResult res;
  res.exact = false;
  res.expansions = 0;
  NodeMatching identity(static_cast<size_t>(g1.NumNodes()));
  for (int i = 0; i < g1.NumNodes(); ++i) identity[i] = i;
  res.ged = EditCostFromMatching(g1, g2, identity);
  if (initial_upper_bound >= 0 && initial_upper_bound < res.ged) {
    res.ged = initial_upper_bound;
  } else {
    res.matching = std::move(identity);
  }
  return res;
}

}  // namespace otged
