#include "telemetry/bench_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace otged {
namespace telemetry {

std::string GitRevision() {
  if (const char* sha = std::getenv("GITHUB_SHA"); sha && *sha) return sha;
#if defined(_WIN32)
  return "unknown";
#else
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buf[128] = {0};
  std::string rev;
  if (std::fgets(buf, sizeof(buf), pipe)) rev = buf;
  ::pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
    rev.pop_back();
  // A 40-hex sha1 (or 64-hex sha256) — anything else means git failed.
  if (rev.size() != 40 && rev.size() != 64) return "unknown";
  return rev;
#endif
}

double PercentileOf(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  long rank =
      static_cast<long>(std::ceil(q * static_cast<double>(samples.size())));
  if (rank < 1) rank = 1;
  return samples[rank - 1];
}

bool WriteBenchJson(const BenchReport& report, const std::string& path,
                    std::string* error) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string rev = GitRevision();
  static const char* kTierNames[6] = {"invariant", "branch", "heuristic",
                                      "exact",     "cache",  "index"};
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"git_rev\": \"%s\",\n"
               "  \"timestamp\": %lld,\n"
               "  \"threads\": %d,\n"
               "  \"corpus_size\": %d,\n"
               "  \"num_queries\": %d,\n"
               "  \"qps\": %.2f,\n"
               "  \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
               "\"p99\": %.3f},\n",
               report.bench.c_str(), rev.c_str(),
               static_cast<long long>(std::time(nullptr)), report.threads,
               report.corpus_size, report.num_queries, report.qps,
               report.p50_ms, report.p95_ms, report.p99_ms);
  std::fprintf(f, "  \"tier_fractions\": {");
  for (int t = 0; t < 6; ++t)
    std::fprintf(f, "%s\"%s\": %.4f", t == 0 ? "" : ", ", kTierNames[t],
                 report.tier_fractions[t]);
  std::fprintf(f,
               "},\n"
               "  \"cache_hit_rate\": %.4f",
               report.cache_hit_rate);
  if (report.has_cache)
    std::fprintf(f,
                 ",\n  \"cache\": {\"repeat_ratio\": %.4f, "
                 "\"warm_hit_rate\": %.4f, \"warm_lookups\": %ld}",
                 report.cache_repeat_ratio, report.cache_warm_hit_rate,
                 report.cache_warm_lookups);
  if (report.has_index)
    std::fprintf(f,
                 ",\n  \"index\": {\"candidate_fraction\": %.4f, "
                 "\"partition_prune_fraction\": %.4f, "
                 "\"label_prune_fraction\": %.4f}",
                 report.index_candidate_fraction,
                 report.index_partition_prune_fraction,
                 report.index_label_prune_fraction);
  if (report.has_churn)
    std::fprintf(f,
                 ",\n  \"churn\": {\"insert_ms_p50\": %.4f, "
                 "\"erase_ms_p50\": %.4f, \"view_ms_p50\": %.4f}",
                 report.churn_insert_ms_p50, report.churn_erase_ms_p50,
                 report.churn_view_ms_p50);
  std::fprintf(f, "\n}\n");
  const bool ok = std::fclose(f) == 0;
  if (!ok && error) *error = "write to " + path + " failed";
  return ok;
}

}  // namespace telemetry
}  // namespace otged
