// gedbench: closed-loop serving benchmark of the GED search engine.
//
//   gedbench prepare --workload W --store FILE
//       Generates the workload's (fixed) corpus and writes it, with its
//       compacted index, as a store file (the cold-start input).
//   gedbench serve --workload W --seed N --seconds S --trace 0|1
//                  --store FILE --state-dir DIR
//       Cold-starts from the store file, replays the workload's operation
//       stream from one client thread for about S seconds, checks every
//       answer, and prints the metrics; the last line of stdout is the
//       JSON result. --trace 1 records spans and prints the per-layer
//       metrics instead of the end-to-end ones.
//
// README.md in this directory describes workloads, metrics and the
// layer map.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "search/filter_cascade.hpp"
#include "search/graph_store.hpp"
#include "search/query_engine.hpp"
#include "search/store_serialize.hpp"
#include "telemetry/metrics.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

using namespace otged;

namespace gedbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up runs at least kMinSetups times and until kSetupSeconds are
// spent (at most kMaxSetups); setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupSeconds = 2.0;
constexpr double kWarmupSeconds = 1.0;
// Reads slower than this are reported one by one.
constexpr double kSlowOpMs = 1000.0;
// Write probe: alternating inserts and erases for kWriteProbeSeconds of
// client time, between kMinWriteProbes and kMaxWriteProbes ops.
constexpr double kWriteProbeSeconds = 3.0;
constexpr int kMinWriteProbes = 200;
constexpr int kMaxWriteProbes = 100000;
// The timed metrics are medians over blocks of kBlockSamples consecutive
// samples, so a slow spell of the shared host that covers fewer than half
// of a run's blocks does not move them. A block of 100 leaves ten samples
// beyond its p90. Sample sets with fewer than kMinBlocks full blocks (the
// hard workload's reads, a few hundred at most) are one block.
constexpr size_t kBlockSamples = 100;
constexpr size_t kMinBlocks = 10;
constexpr const char* kTierSpans[5] = {"cascade.tier0", "cascade.tier1",
                                       "cascade.tier2", "cascade.tier3",
                                       "cascade.tier4"};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string mode;
  Workload workload = Workload::kHardRange2k;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string store_path;
  std::string state_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  bool have_workload = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(val, &a->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--store") {
      a->store_path = val;
    } else if (key == "--state-dir") {
      a->state_dir = val;
    } else {
      return false;
    }
  }
  return have_workload && !a->store_path.empty() &&
         (a->mode == "prepare" || a->mode == "serve") && a->seconds > 0;
}

/// Linear-interpolation percentile (numpy's default); 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median of f over consecutive blocks of kBlockSamples samples (samples
/// after the last full block are left out), or f of all samples when
/// there are fewer than kMinBlocks full blocks.
template <class F>
double BlockMedian(const std::vector<double>& v, F f) {
  const size_t blocks = v.size() / kBlockSamples;
  if (blocks < kMinBlocks) return f(v);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b)
    per_block.push_back(f(std::vector<double>(
        v.begin() + static_cast<long>(b * kBlockSamples),
        v.begin() + static_cast<long>((b + 1) * kBlockSamples))));
  return Percentile(per_block, 0.5);
}

double BlockPercentile(const std::vector<double>& v, double q) {
  return BlockMedian(v, [q](const std::vector<double>& b) {
    return Percentile(b, q);
  });
}

/// The per-read samples the timed read metrics cover: whole cost cycles
/// from read 1 when the stream has a cycle and one completed, so every
/// run measures the same mix of reads; else all reads.
std::vector<double> WholeCycles(const std::vector<double>& per_read,
                                long cycle) {
  const long n = static_cast<long>(per_read.size()) - 1;
  if (cycle <= 0 || n < cycle) return per_read;
  return std::vector<double>(per_read.begin() + 1,
                             per_read.begin() + 1 + n / cycle * cycle);
}

/// Reads per second over samples of per-read stream time.
double BlockQps(const std::vector<double>& read_cost_ms) {
  return BlockMedian(read_cost_ms, [](const std::vector<double>& b) {
    double ms = 0.0;
    for (double x : b) ms += x;
    return Ratio(1000.0 * static_cast<double>(b.size()), ms);
  });
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<long>(in.tellg()) : -1;
}

bool SameHits(const std::vector<SearchHit>& a,
              const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].ged != b[i].ged ||
        a[i].exact_distance != b[i].exact_distance)
      return false;
  return true;
}

/// FNV-1a over 64-bit words: the determinism digest.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(long v) {
    const uint64_t x = static_cast<uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

/// Everything deterministic about one read: hits and the per-layer counts
/// the engine reported (tiers, exact runs, index pruning).
void DigestRead(const std::vector<SearchHit>& hits, const QueryStats& s,
                Digest* d) {
  for (const SearchHit& h : hits) {
    d->Add(h.id);
    d->Add(h.ged);
    d->Add(h.exact_distance ? 1 : 0);
  }
  const CascadeStats& c = s.cascade;
  for (long v : {c.candidates, c.pruned_index, c.pruned_invariant,
                 c.passed_invariant, c.pruned_branch, c.decided_heuristic,
                 c.decided_ot, c.decided_exact, c.ot_calls, c.exact_calls,
                 c.exact_incomplete, c.cache_hits})
    d->Add(v);
  const IndexStats& x = s.index;
  for (long v : {x.scanned, x.partition_pruned, x.label_pruned,
                 x.vptree_pruned, x.candidates, x.partitions_seen,
                 x.partitions_opened, x.vp_nodes_visited})
    d->Add(v);
}

/// Operations of each workload's stream whose counts form the
/// determinism digest; small enough that every run completes them.
long DigestPrefix(Workload w) {
  return w == Workload::kHardRange2k ? 6 : 60;
}

/// One cold-started serving stack: the store and the engine over it.
struct Serving {
  GraphStore store;
  std::unique_ptr<QueryEngine> engine;  // declared after the store it uses
};

class Runner {
 public:
  Runner(Workload w, const EngineOptions& opt, Serving* sv, Tracer* tracer)
      : workload_(w),
        opt_(opt),
        store_(sv->store),
        engine_(*sv->engine),
        tracer_(tracer),
        replay_(opt.cascade) {}

  /// Executes one op from the client thread, checks its answer and
  /// records its metrics. Stream ops feed qps and the per-layer
  /// counters; probe ops only feed their own latency metrics.
  void Execute(const Op& op, bool stream, bool in_digest);

  long attempted = 0;
  long failed = 0;
  double stream_ms = 0.0;  ///< summed client latency of stream ops
  long stream_reads = 0;
  std::vector<double> range_ms, write_ms, insert_ms, erase_ms;
  /// Stream client time from the end of the previous stream read to the
  /// end of this one (on churn, the writes before a read count in it).
  std::vector<double> read_cost_ms;
  long hit_count = 0, unproven_hits = 0;  ///< over stream reads
  CascadeStats cascade;              ///< engine stats over stream reads
  IndexStats index;                  ///< engine stats over stream reads
  double served_engine_ms = 0.0;     ///< engine call time, stream reads
  long ref_checked = 0;
  Digest digest;
  long digest_ops = 0;
  double digest_ms = 0.0;  ///< client time of the digest prefix
  // Traced run only: index timings over every read, replayed cascade
  // timings over stream reads.
  std::vector<double> view_ms, range_cand_ms, pair_ms;
  double tier_busy_ms[5] = {0, 0, 0, 0, 0};
  long replay_exact_calls = 0, replay_expansions = 0;

 private:
  void Fail(long op, const char* what);
  // Both return the op's client latency (ms).
  double Read(const Op& op, long id, int root, bool stream, bool in_digest);
  double Write(const Op& op, long id, int root, bool stream, bool in_digest);
  void CheckRange(const Op& op, const RangeResult& r,
                  const StoreSnapshot& snap, long id);
  void Reference(const Op& op, const std::vector<SearchHit>& hits,
                 uint64_t epoch, long id);
  void Replay(const Op& op, const StoreSnapshot& snap, const IndexView& view,
              long id, bool stream);
  double SpanMs(int span) const {
    const Span& s = tracer_->spans()[static_cast<size_t>(span)];
    return (s.end_us - s.start_us) / 1000.0;
  }

  Workload workload_;
  EngineOptions opt_;
  GraphStore& store_;
  const QueryEngine& engine_;
  Tracer* tracer_;
  FilterCascade replay_;
  std::unique_ptr<QueryEngine> reference_;  // no index, no bound cache
  long next_op_ = 0;
  long last_failed_op_ = -1;
  long fresh_reads_ = 0;
  double last_read_end_ms_ = 0.0;  ///< stream_ms at the last stream read
};

void Runner::Fail(long op, const char* what) {
  if (op != last_failed_op_) ++failed;
  last_failed_op_ = op;
  if (failed <= 10) std::printf("CHECK FAILED (op %ld): %s\n", op, what);
}

void Runner::Execute(const Op& op, bool stream, bool in_digest) {
  const long id = next_op_++;
  ++attempted;
  static constexpr const char* kOpSpans[3] = {"op.range", "op.insert",
                                              "op.erase"};
  const int root = tracer_->Begin(kOpSpans[op.kind], -1, id);
  const double ms = op.kind == Op::kRange
                        ? Read(op, id, root, stream, in_digest)
                        : Write(op, id, root, stream, in_digest);
  if (in_digest) {
    ++digest_ops;
    digest_ms += ms;
  }
}

double Runner::Write(const Op& op, long id, int root, bool stream,
                     bool in_digest) {
  double ms = 0.0;
  if (op.kind == Op::kInsert) {
    const int expect = store_.NextId();
    Graph g = op.graph;  // the copy stays outside the timed call
    const int span = tracer_->Begin("store.insert", root, id);
    const auto t0 = Clock::now();
    const int gid = store_.Insert(std::move(g));
    ms = MsSince(t0);
    tracer_->End(span);
    tracer_->End(root);
    if (gid != expect || !store_.Contains(gid)) Fail(id, "insert id");
    insert_ms.push_back(ms);
    if (in_digest) digest.Add(gid);
  } else {
    const int span = tracer_->Begin("store.erase", root, id);
    const auto t0 = Clock::now();
    const bool erased = store_.Erase(op.erase_id);
    ms = MsSince(t0);
    tracer_->End(span);
    tracer_->End(root);
    if (!erased || store_.Contains(op.erase_id)) Fail(id, "erase");
    erase_ms.push_back(ms);
    if (in_digest) digest.Add(op.erase_id);
  }
  if (tracer_->enabled()) ms = SpanMs(root);
  write_ms.push_back(ms);
  if (stream) stream_ms += ms;
  return ms;
}

double Runner::Read(const Op& op, long id, int root, bool stream,
                    bool in_digest) {
  std::shared_ptr<const StoreSnapshot> snap;
  std::shared_ptr<const IndexView> view;
  if (tracer_->enabled()) {
    // Pinning and advancing the view here, before the engine call, puts
    // their cost in spans of their own; the engine then finds the view
    // already current.
    {
      ScopedSpan s(tracer_, "store.snapshot", root, id);
      snap = store_.Snapshot();
    }
    ScopedSpan s(tracer_, "index.view", root, id);
    view = engine_.index()->ViewFor(snap);
  }
  const int span = tracer_->Begin("engine.range", root, id);
  const auto t0 = Clock::now();
  const RangeResult r = engine_.Range(op.graph, op.param);
  const double engine_ms = MsSince(t0);
  tracer_->End(span);
  tracer_->End(root);
  double ms = engine_ms;
  if (tracer_->enabled()) {
    ms = SpanMs(root);
    view_ms.push_back(SpanMs(root + 2));  // the index.view span above
  } else {
    snap = store_.Snapshot();  // one client: nothing mutated since the call
  }
  const CascadeStats& c = r.stats.cascade;
  if (engine_ms > kSlowOpMs)
    std::printf("slow range (op %ld): %.0f ms, %ld cascade pairs, %ld exact "
                "calls (%ld out of budget), %zu hits\n",
                id, engine_ms, c.candidates - c.pruned_index, c.exact_calls,
                c.exact_incomplete, r.hits.size());
  range_ms.push_back(ms);
  CheckRange(op, r, *snap, id);
  if (stream) {
    stream_ms += ms;
    ++stream_reads;
    read_cost_ms.push_back(stream_ms - last_read_end_ms_);
    last_read_end_ms_ = stream_ms;
    served_engine_ms += engine_ms;
    cascade.Merge(c);
    index.Merge(r.stats.index);
    hit_count += static_cast<long>(r.hits.size());
    for (const SearchHit& h : r.hits)
      unproven_hits += h.exact_distance ? 0 : 1;
  }
  if (in_digest) DigestRead(r.hits, r.stats, &digest);
  // Deterministic sample of first-time reads re-served on the same
  // snapshot by an engine that scans every graph. A first-time read has
  // no bound-cache entries, so the reference needs no cache; a repeat
  // can legitimately differ, since hits from its first serving may prove
  // a distance the cold pass left unproven.
  const long every = workload_ == Workload::kHardRange2k ? 12 : 100;
  if (!op.repeat && fresh_reads_++ % every == 0)
    Reference(op, r.hits, r.stats.epoch, id);
  if (tracer_->enabled()) Replay(op, *snap, *view, id, stream);
  return ms;
}

void Runner::CheckRange(const Op& op, const RangeResult& r,
                        const StoreSnapshot& snap, long id) {
  if (r.stats.epoch != snap.epoch()) Fail(id, "range epoch != pinned");
  bool source_found = false;
  for (size_t i = 0; i < r.hits.size(); ++i) {
    const SearchHit& h = r.hits[i];
    if (i > 0 && r.hits[i - 1].id >= h.id) Fail(id, "range hits not by id");
    if (snap.SlotOf(h.id) < 0) Fail(id, "range hit not live");
    if (h.ged < 0) Fail(id, "range hit without a distance");
    if (h.exact_distance && h.ged > op.param)
      Fail(id, "proven range distance above tau");
    source_found = source_found || h.id == op.source_id;
  }
  // The stored graph a query was perturbed from by <= tau edits must be
  // found: the cascade never dismisses without an admissible bound.
  if (op.source_id >= 0 && op.source_edits <= op.param &&
      snap.SlotOf(op.source_id) >= 0 && !source_found)
    Fail(id, "range missed the query's source graph");
}

void Runner::Reference(const Op& op, const std::vector<SearchHit>& hits,
                       uint64_t epoch, long id) {
  if (!reference_) {
    EngineOptions ropt = opt_;
    ropt.use_index = false;
    // No cache: its lookups would land in the bound-cache counters the
    // traced run reports, and a read's pairs are distinct anyway.
    ropt.use_bound_cache = false;
    reference_ = std::make_unique<QueryEngine>(&store_, ropt);
  }
  ++ref_checked;
  const RangeResult e = reference_->Range(op.graph, op.param);
  if (e.stats.epoch != epoch || !SameHits(hits, e.hits))
    Fail(id, "hits differ from the linear-scan engine");
}

void Runner::Replay(const Op& op, const StoreSnapshot& snap,
                    const IndexView& view, long id, bool stream) {
  // Not part of the op: replays the index levels and the cascade of the
  // call on the pinned view and snapshot, one call at a time, so each
  // layer's work gets a span of its own.
  const int root = tracer_->Begin("replay", -1, id);
  const GraphInvariants qi = ComputeInvariants(op.graph);
  std::vector<int> ids;
  IndexStats scratch;
  const int index_span = tracer_->Begin("index.range_candidates", root, id);
  view.RangeCandidates(qi, op.param, &ids, &scratch);
  tracer_->End(index_span);
  range_cand_ms.push_back(SpanMs(index_span));
  for (const int gid : ids) {
    const int slot = snap.SlotOf(gid);
    if (slot < 0) continue;
    CascadeProbe probe;
    CascadeStats cs;
    const int pair = tracer_->Begin("cascade.pair", root, id);
    replay_.BoundedDistance(op.graph, qi, snap.graph(slot),
                            snap.invariants(slot), op.param,
                            /*need_distance=*/false, &cs, &probe);
    tracer_->End(pair);
    double at = tracer_->spans()[static_cast<size_t>(pair)].start_us;
    for (int t = 0; t < 5; ++t) {
      if (probe.tier_us[t] <= 0.0) continue;
      tracer_->Add(kTierSpans[t], at, probe.tier_us[t], pair, id);
      at += probe.tier_us[t];
      if (stream) tier_busy_ms[t] += probe.tier_us[t] / 1000.0;
    }
    if (stream) {
      pair_ms.push_back(SpanMs(pair));
      if (cs.exact_calls > 0) {
        ++replay_exact_calls;
        replay_expansions += probe.exact_expansions;
      }
    }
  }
  tracer_->End(root);
}

// ------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 long attempted, long failed) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  // Metric names and units are plain identifiers: nothing to escape.
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
}

/// Compares the run's determinism digest with the one an earlier run of
/// the same workload and seed left in the state directory (or leaves
/// one). Returns false on a mismatch.
bool CheckDigest(const Args& a, const Runner& run) {
  char line[128];
  std::snprintf(line, sizeof(line), "%ld %016" PRIx64, run.digest_ops,
                run.digest.h);
  const std::string path = a.state_dir + "/digest-" +
                            WorkloadName(a.workload) + "-" +
                            std::to_string(a.seed) + ".txt";
  std::ifstream in(path);
  std::string prev;
  if (in && std::getline(in, prev)) {
    std::printf("determinism digest %s (earlier run: %s)\n", line,
                prev.c_str());
    return prev == line;
  }
  std::ofstream(path) << line << "\n";
  std::printf("determinism digest %s (first run of this seed)\n", line);
  return true;
}

/// The traced run's report: self time per span name, grouped by the root
/// span it ran under (each op kind, the replay, or set-up), and the
/// split of the served engine time that the replay implies.
void PrintSelfTimes(const Tracer& tracer, const Runner& run, double reads,
                    int workers) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<std::string> group(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
      group[i] = group[static_cast<size_t>(s.parent)];  // parents come first
    } else {
      group[i] = s.name;
    }
  }
  std::map<std::string, std::map<std::string, double>> self_ms;
  std::map<std::string, double> group_ms;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms =
        (spans[i].end_us - spans[i].start_us - child_us[i]) / 1000.0;
    self_ms[group[i]][spans[i].name] += ms;
    group_ms[group[i]] += ms;
  }
  std::printf("self time by layer (all ops; per read = / %.0f stream "
              "reads)\n",
              reads);
  for (const auto& [g, names] : self_ms) {
    std::printf("  [%s] %.1f ms\n", g.c_str(), group_ms[g]);
    for (const auto& [name, ms] : names)
      std::printf("    %-28s %12.1f ms %10.3f ms/read %6.1f%%\n",
                  name.c_str(), ms, Ratio(ms, reads),
                  100.0 * Ratio(ms, group_ms[g]));
  }
  const double engine = Ratio(run.served_engine_ms, reads);
  const double index = Ratio((run.index.partition_us + run.index.label_us +
                              run.index.vptree_us) /
                                 1000.0,
                             reads);
  std::printf("served engine time per stream read %.3f ms: index %.3f ms "
              "(%.1f%%)",
              engine, index, 100.0 * Ratio(index, engine));
  for (int t = 0; t < 5; ++t) {
    const double busy = Ratio(run.tier_busy_ms[t], reads * workers);
    std::printf(", tier%d %.3f ms (%.1f%%)", t, busy,
                100.0 * Ratio(busy, engine));
  }
  std::printf("  [tier time = replayed busy time / %d workers]\n", workers);
}

int Prepare(const Args& a) {
  const auto t0 = Clock::now();
  GraphStore store;
  store.AddAll(MakeCorpus(a.workload));
  GraphIndex index(MakeEngineOptions(a.workload).index);
  std::string error;
  if (!SaveGraphStore(store, a.store_path, &error, &index)) {
    std::fprintf(stderr, "prepare: %s\n", error.c_str());
    return 2;
  }
  std::printf("prepared %s: %d graphs, %ld bytes, %.2f s\n",
              WorkloadName(a.workload), store.Size(),
              FileBytes(a.store_path), MsSince(t0) / 1000.0);
  return 0;
}

int Serve(const Args& a) {
  Tracer tracer(a.trace);
  const EngineOptions eopt = MakeEngineOptions(a.workload);

  // Set-up, repeated: each stack is torn down before the next one loads,
  // and the last one serves.
  std::vector<double> setup_s, load_s;
  std::unique_ptr<Serving> sv;
  const auto setup_start = Clock::now();
  const auto more_setups = [&](int done) {
    return done < kMaxSetups &&
           (done < kMinSetups || MsSince(setup_start) < kSetupSeconds * 1e3);
  };
  for (int r = 0; more_setups(r); ++r) {
    sv.reset();
    const int root = tracer.Begin("setup", -1, -1);
    const auto t0 = Clock::now();
    auto s = std::make_unique<Serving>();
    s->engine = std::make_unique<QueryEngine>(&s->store, eopt);
    std::string error;
    const int load = tracer.Begin("store.load", root, -1);
    const auto tl = Clock::now();
    const bool ok =
        LoadGraphStore(&s->store, a.store_path, &error, s->engine->index());
    load_s.push_back(MsSince(tl) / 1000.0);
    tracer.End(load);
    if (!ok) {
      std::fprintf(stderr, "serve: cannot load %s: %s\n",
                   a.store_path.c_str(), error.c_str());
      return 2;
    }
    {
      ScopedSpan v(&tracer, "setup.view", root, -1);
      s->engine->index()->ViewFor(s->store.Snapshot());
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
    tracer.End(root);
    sv = std::move(s);
  }
  const int corpus = sv->store.Size();

  Runner run(a.workload, eopt, sv.get(), &tracer);
  OpStream stream(a.workload, a.seed);
  const long prefix = DigestPrefix(a.workload);

  // Warm-up: untimed reads, so the timed stream does not start by paying
  // for first touches of the freshly loaded working set.
  for (const auto w0 = Clock::now(); MsSince(w0) < kWarmupSeconds * 1000.0;) {
    const Op op = stream.NextWarmupRead();
    sv->engine->Range(op.graph, op.param);
  }
  const auto start = Clock::now();
  const auto cache_before = telemetry::Registry().Snapshot();
  // The untraced run stops once its ops have taken --seconds of client
  // time (answer checks come on top); the traced run stops on wall time,
  // since its replays take several times the ops' own time.
  const auto measured = [&] {
    return a.trace ? MsSince(start) : run.stream_ms;
  };
  for (long n = 0; measured() < a.seconds * 1000.0 || n < prefix; ++n)
    run.Execute(stream.Next(*sv->store.Snapshot()), true, n < prefix);
  const auto cache_after = telemetry::Registry().Snapshot();
  const long stream_ops = run.attempted;
  // Write probe: alternating inserts and erases after the stream, for
  // workloads whose stream has no writes.
  if (!stream.StreamHasWrites()) {
    double probe_ms = 0.0;
    for (int n = 0; n < kMaxWriteProbes &&
                    (n < kMinWriteProbes ||
                     probe_ms < kWriteProbeSeconds * 1000.0);
         ++n) {
      run.Execute(stream.NextWriteProbe(*sv->store.Snapshot(), n % 2 == 0),
                  false, false);
      probe_ms += run.write_ms.back();
    }
  }
  const double measured_s = MsSince(start) / 1000.0;

  const bool digest_ok = CheckDigest(a, run);
  long failed = run.failed;
  if (!digest_ok) {
    std::printf("CHECK FAILED: determinism digest differs from an earlier "
                "run of this seed\n");
    ++failed;
  }
  const CascadeStats& c = run.cascade;
  const double reads = static_cast<double>(run.stream_reads);
  const long cache_hits =
      cache_after.CounterValue("otged_bound_cache_hits_total") -
      cache_before.CounterValue("otged_bound_cache_hits_total");
  const long cache_lookups =
      cache_hits +
      cache_after.CounterValue("otged_bound_cache_misses_total") -
      cache_before.CounterValue("otged_bound_cache_misses_total");

  std::printf("workload %s seed %" PRIu64 " | %d graphs | %d workers | "
              "%s run\n",
              WorkloadName(a.workload), a.seed, corpus,
              sv->engine->num_threads(), a.trace ? "traced" : "untraced");
  std::printf("ops: %ld stream (%ld reads, %.3f repeated), %ld probe | "
              "%zu range, %zu write samples | %.1f s measured\n",
              stream_ops, run.stream_reads,
              Ratio(static_cast<double>(stream.repeats()),
                    static_cast<double>(stream.reads())),
              run.attempted - stream_ops, run.range_ms.size(),
              run.write_ms.size(), measured_s);
  std::printf("prefix: %ld ops in %.3f ms of client time (the same ops in "
              "every run of this seed; traced / untraced = tracing "
              "overhead) | %zu spans\n",
              run.digest_ops, run.digest_ms, tracer.spans().size());
  std::printf("checks: %ld ops failed of %ld | %ld reads re-served by the "
              "linear-scan engine | hits %ld, unproven %ld\n",
              failed, run.attempted, run.ref_checked, run.hit_count,
              run.unproven_hits);

  const double unproven = Ratio(static_cast<double>(run.unproven_hits),
                                static_cast<double>(run.hit_count));
  const long cycle = stream.CycleReads();
  std::vector<Metric> m;
  if (!a.trace) {
    const std::vector<double> range_ms = WholeCycles(run.range_ms, cycle);
    std::printf("read metrics over %zu of %zu stream reads\n",
                range_ms.size(), run.range_ms.size());
    m = {
        {"qps", BlockQps(WholeCycles(run.read_cost_ms, cycle)), "1/s"},
        {"range_p50_ms", BlockPercentile(range_ms, 0.5), "ms"},
        {"range_p90_ms", BlockPercentile(range_ms, 0.9), "ms"},
        {"write_p50_ms", BlockPercentile(run.write_ms, 0.5), "ms"},
        {"write_p90_ms", BlockPercentile(run.write_ms, 0.9), "ms"},
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const long entered0 = c.candidates - c.pruned_index - c.cache_hits;
    const long settled0 = c.pruned_invariant + c.passed_invariant;
    const long entered1 = eopt.cascade.use_branch_bound ? entered0 - settled0
                                                        : 0;
    const long entered2 = entered0 - settled0 - c.pruned_branch;
    const long entered[5] = {entered0, entered1, entered2, c.ot_calls,
                             c.exact_calls};
    const long settled[5] = {settled0, c.pruned_branch, c.decided_heuristic,
                             c.decided_ot,
                             c.decided_exact - c.exact_incomplete};
    const double scanned = static_cast<double>(run.index.scanned);
    double pair_busy_ms = 0.0;
    for (double t : run.tier_busy_ms) pair_busy_ms += t;
    const double index_ms = (run.index.partition_us + run.index.label_us +
                             run.index.vptree_us) /
                            1000.0;
    const double workers = sv->engine->num_threads();
    m = {
        {"store.insert_ms_p50", Percentile(run.insert_ms, 0.5), "ms"},
        {"store.erase_ms_p50", Percentile(run.erase_ms, 0.5), "ms"},
        {"store.load_s", Percentile(load_s, 0.5), "s"},
        {"store.bytes_per_graph",
         Ratio(static_cast<double>(FileBytes(a.store_path)), corpus),
         "bytes"},
        {"index.view_ms_p50", Percentile(run.view_ms, 0.5), "ms"},
        {"index.range_candidates_ms_p50", Percentile(run.range_cand_ms, 0.5),
         "ms"},
        {"index.candidate_fraction",
         Ratio(static_cast<double>(run.index.candidates), scanned), "ratio"},
        {"index.partition_prune_frac",
         Ratio(static_cast<double>(run.index.partition_pruned), scanned),
         "ratio"},
        {"index.label_prune_frac",
         Ratio(static_cast<double>(run.index.label_pruned), scanned),
         "ratio"},
        {"index.vptree_prune_frac",
         Ratio(static_cast<double>(run.index.vptree_pruned), scanned),
         "ratio"},
        {"cascade.pairs_per_read", Ratio(static_cast<double>(entered0), reads),
         "count"},
        {"cascade.pair_ms_p50", Percentile(run.pair_ms, 0.5), "ms"},
        {"cascade.pair_ms_max", Percentile(run.pair_ms, 1.0), "ms"},
    };
    for (int t = 0; t < 5; ++t) {
      const std::string p = "cascade.tier" + std::to_string(t);
      m.push_back({p + ".entered", static_cast<double>(entered[t]), "count"});
      m.push_back({p + ".settled_frac",
                   Ratio(static_cast<double>(settled[t]),
                         static_cast<double>(entered[t])),
                   "ratio"});
      m.push_back({p + ".busy_ms_per_read", Ratio(run.tier_busy_ms[t], reads),
                   "ms"});
    }
    m.push_back({"cascade.exact.expansions_per_call",
                 Ratio(static_cast<double>(run.replay_expansions),
                       static_cast<double>(run.replay_exact_calls)),
                 "count"});
    m.push_back({"cascade.unproven_hit_frac", unproven, "ratio"});
    m.push_back({"cascade.exact.incomplete_frac",
                 Ratio(static_cast<double>(c.exact_incomplete),
                       static_cast<double>(c.exact_calls)),
                 "ratio"});
    m.push_back({"pool.busy_frac",
                 Ratio(pair_busy_ms,
                       workers * (run.served_engine_ms - index_ms)),
                 "ratio"});
    m.push_back({"cache.lookups", static_cast<double>(cache_lookups),
                 "count"});
    m.push_back({"cache.hit_rate",
                 Ratio(static_cast<double>(cache_hits),
                       static_cast<double>(cache_lookups)),
                 "ratio"});
    m.push_back({"workload.repeat_frac",
                 Ratio(static_cast<double>(stream.repeats()),
                       static_cast<double>(stream.reads())),
                 "ratio"});
    m.push_back({"trace.range_ms_p50",
                 BlockPercentile(WholeCycles(run.range_ms, cycle), 0.5),
                 "ms"});
    PrintSelfTimes(tracer, run, reads, sv->engine->num_threads());
    const std::string path = a.state_dir + "/trace-" +
                             WorkloadName(a.workload) + "-" +
                             std::to_string(a.seed) + ".jsonl";
    if (!tracer.WriteJsonl(path))
      std::printf("warning: cannot write spans to %s\n", path.c_str());
  }
  // For reading only, in both modes: failures are already the result
  // line's "failed" / "attempted", and the unproven share of hits moves
  // too much from seed to seed on the molecule workloads (a few dozen
  // unproven hits per run) to carry a bound.
  std::printf("  %-36s %16.6f ratio\n  %-36s %16.6f ratio\n", "failed_frac",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(run.attempted)),
              "unproven_frac", unproven);
  PrintResult(m, failed == 0, run.attempted, failed);
  return 0;
}

}  // namespace
}  // namespace gedbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  gedbench::Args args;
  if (!gedbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gedbench prepare --workload W --store FILE\n"
                 "       gedbench serve --workload W --seed N --store FILE "
                 "--seconds S --trace 0|1 --state-dir DIR\n");
    return 2;
  }
  return args.mode == "prepare" ? gedbench::Prepare(args)
                                : gedbench::Serve(args);
}
