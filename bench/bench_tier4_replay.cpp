/// \file bench_tier4_replay.cpp
/// \brief Tier-4 replay: the exact tier's share of gedbench's
/// `hard-range-2k` workload, as a deterministic single-threaded count.
///
/// Runs every (read, graph) pair of the workload's 20 distinct reads
/// (`HardReadPool()`, tau = 4) over its fixed 2,000-graph corpus
/// (`MakeCorpus(kHardRange2k)`) through FilterCascade::BoundedDistance
/// with range semantics and the workload's exact budget (200k
/// expansions), on the calling thread. gedbench's own workload code is
/// compiled in unchanged, so the replay sees exactly the pairs a
/// serving run sees. It prints the tier-4 pairs, how many ran out of
/// budget, the expansions they took, the proven and unproven hits and
/// the proven dismissals among them, the pairs each cascade tier settled
/// and the busy time spent in it (from CascadeProbe), and an FNV-1a
/// digest of every pair's (within, ged, exact) verdict: equal digests
/// mean equal answers, and the counts are the equal-work evidence a
/// timed serving run cannot give.
///
/// Gate: no tier-4 pair may run out of budget (`incomplete == 0`); the
/// run exits nonzero otherwise.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "gedbench/src/workloads.hpp"
#include "search/filter_cascade.hpp"

namespace gedbench {
// Defined in gedbench/src/workloads.cpp next to MakeCorpus.
std::vector<Op> HardReadPool();
}  // namespace gedbench

using namespace otged;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, int64_t v) {
  for (int b = 0; b < 8; ++b) {
    *h ^= static_cast<uint64_t>(v >> (8 * b)) & 0xff;
    *h *= kFnvPrime;
  }
}

}  // namespace

int main() {
  const std::vector<Graph> corpus =
      gedbench::MakeCorpus(gedbench::Workload::kHardRange2k);
  const std::vector<gedbench::Op> reads = gedbench::HardReadPool();
  const FilterCascade cascade(
      gedbench::MakeEngineOptions(gedbench::Workload::kHardRange2k).cascade);
  std::vector<GraphInvariants> inv;
  inv.reserve(corpus.size());
  for (const Graph& g : corpus) inv.push_back(ComputeInvariants(g));

  long pairs = 0, hits = 0, unproven = 0, dismissed = 0;
  CascadeStats total;
  long expansions = 0;
  // The cascade's tiers by CascadeTier number (there is no tier 3), which
  // also indexes `settled` and `busy_s`.
  constexpr struct {
    int tier;
    const char* name;
  } kTiers[] = {{0, "invariant"}, {1, "branch"}, {2, "heuristic"},
                {4, "exact"}};
  long settled[5] = {0, 0, 0, 0, 0};
  double busy_s[5] = {0, 0, 0, 0, 0};
  uint64_t digest = kFnvOffset;
  const auto start = std::chrono::steady_clock::now();
  for (const gedbench::Op& read : reads) {
    const GraphInvariants qi = ComputeInvariants(read.graph);
    for (size_t i = 0; i < corpus.size(); ++i) {
      CascadeStats st;
      CascadeProbe probe;
      const CascadeVerdict v = cascade.BoundedDistance(
          read.graph, qi, corpus[i], inv[i], read.param,
          /*need_distance=*/false, &st, &probe);
      Mix(&digest, v.within);
      Mix(&digest, v.ged);
      Mix(&digest, v.exact_distance);
      total.Merge(st);
      ++settled[static_cast<int>(v.tier)];
      for (const auto& t : kTiers)
        busy_s[t.tier] += probe.tier_us[t.tier] * 1e-6;
      if (st.exact_calls == 0) continue;
      ++pairs;
      expansions += probe.exact_expansions;
      if (v.within) {
        ++hits;
        if (!v.exact_distance) ++unproven;
      } else {
        ++dismissed;
      }
    }
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  std::printf("tier-4 replay: %zu reads x %zu graphs, tau %d, budget %ld\n",
              reads.size(), corpus.size(), reads.front().param,
              cascade.options().exact_budget);
  std::printf("  tier-4 pairs        %ld\n", pairs);
  std::printf("  incomplete          %ld\n", total.exact_incomplete);
  std::printf("  expansions          %ld\n", expansions);
  std::printf("  hits (proven)       %ld\n", hits - unproven);
  std::printf("  hits (unproven)     %ld\n", unproven);
  std::printf("  proven dismissals   %ld\n", dismissed);
  std::printf("  per tier            settled pairs, busy time\n");
  for (const auto& t : kTiers)
    std::printf("    tier %d %-10s %8ld  %8.3f s\n", t.tier, t.name,
                settled[t.tier], busy_s[t.tier]);
  std::printf("  whole replay        %.3f s\n", wall_s);
  std::printf("  verdict digest      %016llx\n",
              static_cast<unsigned long long>(digest));
  const bool complete = total.exact_incomplete == 0;
  std::printf("  every tier-4 pair completes: [%s]\n",
              complete ? "PASS" : "FAIL");
  return complete ? 0 : 1;
}
