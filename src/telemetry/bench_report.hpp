/// \file bench_report.hpp
/// \brief Persisted `BENCH_*.json` performance-trajectory records.
///
/// Every serving benchmark distills its run into one flat JSON document
/// committed at the repository root (e.g. `BENCH_search.json`), so the
/// performance trajectory accumulates in git history: each revision's
/// file carries the rev that produced it, and diffing the file across
/// commits is the perf curve the ROADMAP asks re-anchors to read.
///
/// Schema (all keys always present; validated by
/// `tools/validate_bench_json.py` in the CI bench-smoke job):
///
///   {
///     "bench":        string   benchmark name
///     "git_rev":      string   producing revision ("unknown" outside git)
///     "timestamp":    integer  unix seconds at write time
///     "threads":      integer  worker threads used
///     "corpus_size":  integer  graphs in the store
///     "num_queries":  integer  queries timed
///     "qps":          number   queries per second
///     "latency_ms":   {"p50": number, "p95": number, "p99": number}
///     "tier_fractions": {"invariant","branch","heuristic","exact",
///                        "cache","index": number}  fraction of candidate
///                                           pairs settled per tier
///                                           (sums to 1; "index" = pairs
///                                           the GraphIndex dismissed
///                                           before the cascade ran)
///     "cache_hit_rate": number  bound-cache hits / candidate pairs
///   }
///
/// Three optional sections (emitted when the producing bench measured
/// them; validated when present):
///
///   "cache": {            warm-cache methodology of the SLO phase
///     "repeat_ratio":  number  fraction of SLO queries that repeat an
///                              earlier query verbatim
///     "warm_hit_rate": number  bound-cache hit rate over the warm pass
///     "warm_lookups":  integer cache lookups in the warm pass
///   }
///   "index": {            GraphIndex candidate-generation quality
///     "candidate_fraction":      number  candidates / (queries * corpus)
///     "partition_prune_fraction": number  graphs dismissed per level,
///     "label_prune_fraction":     number  as a fraction of all
///                                          (query, graph) pairs
///   }
///   "churn": {            streamed writes against a serving store
///     "insert_ms_p50": number  median GraphStore::Insert latency
///     "erase_ms_p50":  number  median GraphStore::Erase latency
///     "view_ms_p50":   number  median GraphIndex::ViewFor latency after
///                              a cycle's writes
///   }
#ifndef OTGED_TELEMETRY_BENCH_REPORT_HPP_
#define OTGED_TELEMETRY_BENCH_REPORT_HPP_

#include <string>
#include <vector>

namespace otged {
namespace telemetry {

struct BenchReport {
  std::string bench;
  int threads = 0;
  int corpus_size = 0;
  int num_queries = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Fractions of candidate pairs settled per tier, in the order
  /// invariant, branch, heuristic, exact, cache, index ("index" = pairs
  /// the GraphIndex dismissed before the cascade ran); they partition 1.
  double tier_fractions[6] = {0, 0, 0, 0, 0, 0};
  double cache_hit_rate = 0.0;

  /// Optional warm-cache methodology section (`"cache"` in the JSON);
  /// emitted when `has_cache` is set.
  bool has_cache = false;
  double cache_repeat_ratio = 0.0;
  double cache_warm_hit_rate = 0.0;
  long cache_warm_lookups = 0;

  /// Optional index-quality section (`"index"` in the JSON); emitted
  /// when `has_index` is set.
  bool has_index = false;
  double index_candidate_fraction = 0.0;
  double index_partition_prune_fraction = 0.0;
  double index_label_prune_fraction = 0.0;

  /// Optional streamed-churn section (`"churn"` in the JSON); emitted
  /// when `has_churn` is set.
  bool has_churn = false;
  double churn_insert_ms_p50 = 0.0;
  double churn_erase_ms_p50 = 0.0;
  double churn_view_ms_p50 = 0.0;
};

/// The current git revision: $GITHUB_SHA if set, else `git rev-parse
/// HEAD`, else "unknown". Never fails.
std::string GitRevision();

/// Nearest-rank percentile of a latency sample set; q in [0, 1].
double PercentileOf(std::vector<double> samples, double q);

/// Serializes `report` (git_rev and timestamp are stamped here) to
/// `path`. Returns false and fills `error` on I/O failure.
bool WriteBenchJson(const BenchReport& report, const std::string& path,
                    std::string* error);

}  // namespace telemetry
}  // namespace otged

#endif  // OTGED_TELEMETRY_BENCH_REPORT_HPP_
