/// \file telemetry_test.cpp
/// \brief Telemetry subsystem: sharded counters under thread hammering,
/// log-linear histogram bucket geometry and percentile accuracy, registry
/// snapshot/reset, the TraceSink ring, exporter output — and end-to-end
/// reconciliation: the global cascade counters must agree exactly with
/// the per-query CascadeStats the engine returns on a randomized corpus,
/// and the index view histogram counts each advance and build once.
/// The concurrency tests are written to be clean under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.hpp"
#include "search/index/graph_index.hpp"
#include "search/query_engine.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace otged {
namespace {

using telemetry::HistogramBuckets;

TEST(TelemetryCounterTest, ConcurrentIncrementsSumExactly) {
  telemetry::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Inc();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Value(), long{kThreads} * kPerThread);
  counter.Inc(42);
  EXPECT_EQ(counter.Value(), long{kThreads} * kPerThread + 42);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(TelemetryGaugeTest, SetAndAdd) {
  telemetry::Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 4);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(TelemetryHistogramTest, BucketGeometry) {
  // Exact buckets below kLinear, then every value lands in a bucket whose
  // bounds contain it and whose relative width is at most 2^-kSubBits.
  for (long v = 0; v < HistogramBuckets::kLinear; ++v)
    EXPECT_EQ(HistogramBuckets::BucketOf(v), static_cast<int>(v));
  long probes[] = {16, 17, 100, 1000, 4097, 1 << 20, (1L << 40) + 12345};
  for (long v : probes) {
    int b = HistogramBuckets::BucketOf(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, HistogramBuckets::kCount);
    EXPECT_LE(HistogramBuckets::LowerBound(b), v);
    EXPECT_GE(HistogramBuckets::UpperBound(b), v);
    double width = static_cast<double>(HistogramBuckets::UpperBound(b) -
                                       HistogramBuckets::LowerBound(b) + 1);
    EXPECT_LE(width / static_cast<double>(HistogramBuckets::LowerBound(b)),
              1.0 / HistogramBuckets::kSub + 1e-9);
  }
  // Buckets tile the value axis: consecutive bounds are adjacent.
  for (int b = 0; b + 1 < HistogramBuckets::kCount; ++b)
    ASSERT_EQ(HistogramBuckets::UpperBound(b) + 1,
              HistogramBuckets::LowerBound(b + 1))
        << "gap or overlap at bucket " << b;
}

TEST(TelemetryHistogramTest, PercentilesWithinBucketTolerance) {
  telemetry::Histogram hist;
  for (long v = 1; v <= 1000; ++v) hist.Record(v);
  telemetry::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_EQ(snap.sum, 1000 * 1001 / 2);
  EXPECT_NEAR(snap.Mean(), 500.5, 0.001);
  // A percentile is reported as its bucket's midpoint, so the error is at
  // most half the <=12.5% bucket width; 15% covers it with margin.
  struct { double q, expected; } cases[] = {
      {0.50, 500}, {0.90, 900}, {0.95, 950}, {0.99, 990}};
  for (auto [q, expected] : cases)
    EXPECT_NEAR(snap.Percentile(q), expected, 0.15 * expected)
        << "q=" << q;
  EXPECT_GE(snap.Max(), 1000);
  hist.Reset();
  EXPECT_EQ(hist.Snapshot().count, 0);
  EXPECT_EQ(hist.Snapshot().Percentile(0.5), 0.0);
}

TEST(TelemetryHistogramTest, ConcurrentRecordsKeepExactCountAndSum) {
  telemetry::Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) hist.Record(t * 1000 + i % 97);
    });
  for (auto& th : threads) th.join();
  telemetry::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, long{kThreads} * kPerThread);
  long expected_sum = 0;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) expected_sum += t * 1000 + i % 97;
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(TelemetryRegistryTest, SnapshotAndReset) {
  auto& reg = telemetry::Registry();
  // Unique names keep this test independent of instrumented library code
  // sharing the process-wide registry.
  telemetry::Counter& c = reg.GetCounter("test_registry_counter", "help c");
  telemetry::Gauge& g = reg.GetGauge("test_registry_gauge", "help g");
  telemetry::Histogram& h = reg.GetHistogram("test_registry_hist", "help h");
  c.Inc(5);
  g.Set(-2);
  h.Record(123);
  // Same name returns the same metric, not a fresh one.
  reg.GetCounter("test_registry_counter").Inc(1);
  EXPECT_EQ(c.Value(), 6);

  telemetry::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("test_registry_counter"), 6);
  EXPECT_EQ(snap.CounterValue("no_such_counter", -7), -7);
  bool saw_gauge = false, saw_hist = false;
  for (const auto& named : snap.gauges)
    if (named.name == "test_registry_gauge") {
      saw_gauge = true;
      EXPECT_EQ(named.value, -2);
      EXPECT_EQ(named.help, "help g");
    }
  for (const auto& named : snap.histograms)
    if (named.name == "test_registry_hist") {
      saw_hist = true;
      EXPECT_EQ(named.hist.count, 1);
    }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));

  reg.Reset();
  EXPECT_EQ(c.Value(), 0);       // handles survive a reset
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Snapshot().count, 0);
  c.Inc(3);
  EXPECT_EQ(reg.Snapshot().CounterValue("test_registry_counter"), 3);
}

TEST(TelemetryTraceTest, RingOverwritesOldestAndCountsDrops) {
  telemetry::TraceSink sink(4);
  EXPECT_EQ(sink.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    telemetry::TraceEvent ev;
    ev.query_id = 100 + i;
    ev.graph_id = i;
    sink.Record(ev);
  }
  EXPECT_EQ(sink.Size(), 4u);
  EXPECT_EQ(sink.TotalRecorded(), 10u);
  EXPECT_EQ(sink.Dropped(), 6u);
  std::vector<telemetry::TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {  // oldest first, last four survive
    EXPECT_EQ(events[i].query_id, 100u + 6 + i);
    EXPECT_EQ(events[i].graph_id, 6 + i);
  }
  std::string json = sink.DumpJson();
  EXPECT_NE(json.find("\"dropped\": 6"), std::string::npos);

  std::vector<telemetry::TraceEvent> drained = sink.Drain();
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_EQ(sink.Size(), 0u);
  EXPECT_EQ(sink.TotalRecorded(), 10u);  // totals persist across Drain

  sink.SetCapacity(2);
  EXPECT_EQ(sink.capacity(), 2u);
  EXPECT_EQ(sink.Size(), 0u);
}

TEST(TelemetryExportTest, PrometheusTextAndJsonShapes) {
  telemetry::MetricsRegistry reg;  // private registry: exact, tiny output
  reg.GetCounter("demo_total{tier=\"a\"}", "demo counter").Inc(3);
  reg.GetCounter("demo_total{tier=\"b\"}", "demo counter").Inc(4);
  reg.GetGauge("demo_gauge", "demo gauge").Set(9);
  reg.GetHistogram("demo_us", "demo histogram").Record(5);
  telemetry::MetricsSnapshot snap = reg.Snapshot();

  std::string prom = telemetry::ToPrometheusText(snap);
  EXPECT_NE(prom.find("# HELP demo_total demo counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE demo_total counter"), std::string::npos);
  // One family header even with two labeled series.
  EXPECT_EQ(prom.find("# TYPE demo_total counter"),
            prom.rfind("# TYPE demo_total counter"));
  EXPECT_NE(prom.find("demo_total{tier=\"a\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("demo_total{tier=\"b\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("demo_gauge 9"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE demo_us histogram"), std::string::npos);
  EXPECT_NE(prom.find("demo_us_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("demo_us_count 1"), std::string::npos);
  EXPECT_NE(prom.find("demo_us_sum 5"), std::string::npos);

  std::string json = telemetry::ToJson(snap);
  EXPECT_NE(json.find("\"demo_total{tier=\\\"a\\\"}\": 3"),
            std::string::npos);
  EXPECT_NE(json.find("\"demo_gauge\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(TelemetryBenchReportTest, PercentileAndGitRevision) {
  std::vector<double> samples = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(telemetry::PercentileOf(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(telemetry::PercentileOf(samples, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(telemetry::PercentileOf(samples, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(telemetry::PercentileOf({}, 0.5), 0.0);
  std::string rev = telemetry::GitRevision();
  EXPECT_FALSE(rev.empty());  // a hex SHA or the literal "unknown"
}

// ------------------------------------------------------------ end to end
// These tests assert that the library's instrumentation fires, so they
// only make sense when it is compiled in (the unit tests above exercise
// the metric types directly and run either way).
#if OTGED_TELEMETRY_COMPILED

// Counter deltas across a serving burst must match the CascadeStats
// totals the engine itself returns — the same decisions counted two
// independent ways (per-worker stats buffers vs the sharded global
// counters).
struct NamedField {
  const char* counter;
  long CascadeStats::*field;
};

constexpr NamedField kCascadeFields[] = {
    {"otged_cascade_candidates_total", &CascadeStats::candidates},
    {"otged_cascade_pruned_total{tier=\"index\"}",
     &CascadeStats::pruned_index},
    {"otged_cascade_pruned_total{tier=\"invariant\"}",
     &CascadeStats::pruned_invariant},
    {"otged_cascade_passed_total{tier=\"invariant\"}",
     &CascadeStats::passed_invariant},
    {"otged_cascade_pruned_total{tier=\"branch\"}",
     &CascadeStats::pruned_branch},
    {"otged_cascade_decided_total{tier=\"heuristic\"}",
     &CascadeStats::decided_heuristic},
    {"otged_cascade_decided_total{tier=\"exact\"}",
     &CascadeStats::decided_exact},
    {"otged_cascade_exact_calls_total", &CascadeStats::exact_calls},
    {"otged_cascade_exact_incomplete_total",
     &CascadeStats::exact_incomplete},
    {"otged_cascade_cache_hits_total", &CascadeStats::cache_hits},
};

/// The index counters must have moved by exactly the summed IndexStats.
void ExpectIndexCountersMatch(const telemetry::MetricsSnapshot& before,
                              const telemetry::MetricsSnapshot& after,
                              const IndexStats& itotal) {
  const struct {
    const char* counter;
    long expected;
  } index_rows[] = {
      {"otged_index_candidates_total", itotal.candidates},
      {"otged_index_pruned_total{level=\"partition\"}",
       itotal.partition_pruned},
      {"otged_index_pruned_total{level=\"label\"}", itotal.label_pruned},
      {"otged_index_partitions_opened_total", itotal.partitions_opened},
  };
  for (const auto& row : index_rows)
    EXPECT_EQ(after.CounterValue(row.counter, 0) -
                  before.CounterValue(row.counter, 0),
              row.expected)
        << row.counter;
}

TEST(TelemetryEndToEndTest, CascadeCountersReconcileWithQueryStats) {
  telemetry::SetEnabled(true);
  Rng rng(1234);
  GraphStore store;
  std::vector<Graph> graphs;
  for (int i = 0; i < 70; ++i) graphs.push_back(AidsLikeGraph(&rng, 4, 10));
  store.AddAll(graphs);
  EngineOptions opt;
  opt.num_threads = 4;
  QueryEngine engine(&store, opt);

  std::vector<Graph> queries;
  for (int q = 0; q < 5; ++q) queries.push_back(AidsLikeGraph(&rng, 4, 10));

  telemetry::MetricsSnapshot before = telemetry::Registry().Snapshot();
  CascadeStats total;
  IndexStats itotal;
  for (const RangeResult& res : engine.RangeBatch(queries, 3)) {
    total.Merge(res.stats.cascade);
    itotal.Merge(res.stats.index);
  }
  // Top-k reads the index once per level.
  for (const TopKResult& res : engine.TopKBatch(queries, 4)) {
    total.Merge(res.stats.cascade);
    itotal.Merge(res.stats.index);
  }
  // Second range pass hits the bound cache, exercising the cache-hit
  // mirror path too.
  for (const RangeResult& res : engine.RangeBatch(queries, 3)) {
    total.Merge(res.stats.cascade);
    itotal.Merge(res.stats.index);
  }
  telemetry::MetricsSnapshot after = telemetry::Registry().Snapshot();

  ASSERT_GT(total.candidates, 0);
  EXPECT_GT(total.cache_hits, 0) << "warm pass should hit the bound cache";
  // Every candidate is settled by exactly one tier or the cache.
  EXPECT_EQ(total.SettledTotal(), total.candidates);
  for (const NamedField& nf : kCascadeFields)
    EXPECT_EQ(after.CounterValue(nf.counter) - before.CounterValue(nf.counter),
              total.*nf.field)
        << nf.counter;
  // The index counters reconcile with the summed IndexStats the same way.
  ASSERT_GT(itotal.scanned, 0);
  ExpectIndexCountersMatch(before, after, itotal);
}

/// RangeCandidates mirrors only its own read into the index counters, so
/// a caller may accumulate several reads into one IndexStats.
TEST(TelemetryEndToEndTest, IndexCountersCountEachReadOnceIntoReusedStats) {
  telemetry::SetEnabled(true);
  Rng rng(4321);
  GraphStore store;
  std::vector<Graph> graphs;
  for (int i = 0; i < 80; ++i) graphs.push_back(AidsLikeGraph(&rng, 3, 10));
  store.AddAll(graphs);
  GraphIndex index;
  const std::shared_ptr<const IndexView> view =
      index.ViewFor(store.Snapshot());
  const GraphInvariants qi = ComputeInvariants(AidsLikeGraph(&rng, 5, 7));

  telemetry::MetricsSnapshot before = telemetry::Registry().Snapshot();
  std::vector<int> ids;
  IndexStats stats;
  view->RangeCandidates(qi, 1, &ids, &stats);
  // The first read's counts must be nonzero for a re-count to show.
  ASSERT_GT(stats.partition_pruned, 0);
  ASSERT_GT(stats.label_pruned, 0);
  ASSERT_GT(stats.partitions_opened, 0);
  view->RangeCandidates(qi, 2, &ids, &stats);
  telemetry::MetricsSnapshot after = telemetry::Registry().Snapshot();
  EXPECT_EQ(stats.candidates, static_cast<long>(ids.size()));
  ExpectIndexCountersMatch(before, after, stats);
}

/// Samples recorded so far in the histogram of that full name (0 before
/// its first use).
long HistogramCount(const telemetry::MetricsSnapshot& snap,
                    const std::string& name) {
  for (const auto& named : snap.histograms)
    if (named.name == name) return named.hist.count;
  return 0;
}

TEST(TelemetryEndToEndTest, IndexViewLatencyIsRecordedPerAdvanceOrBuild) {
  telemetry::SetEnabled(true);
  Rng rng(99);
  GraphStore store;
  std::vector<Graph> graphs;
  for (int i = 0; i < 2 * kStoreChunkSize; ++i)
    graphs.push_back(AidsLikeGraph(&rng, 3, 8));
  store.AddAll(graphs);
  GraphIndex index;
  const std::string advance = "otged_index_view_latency_us{kind=\"advance\"}";
  const std::string build = "otged_index_view_latency_us{kind=\"build\"}";

  telemetry::MetricsSnapshot before = telemetry::Registry().Snapshot();
  (void)index.ViewFor(store.Snapshot());  // first view: build
  (void)index.ViewFor(store.Snapshot());  // cached: nothing recorded
  store.Insert(AidsLikeGraph(&rng, 3, 8));
  (void)index.ViewFor(store.Snapshot());  // advance
  ASSERT_TRUE(store.Erase(3));
  (void)index.ViewFor(store.Snapshot());  // advance
  std::vector<std::pair<int, Graph>> entries;
  {
    auto snap = store.Snapshot();
    for (int slot = 0; slot < snap->Size(); ++slot)
      entries.emplace_back(snap->id(slot), snap->graph(slot));
  }
  ASSERT_TRUE(store.Restore(std::move(entries), store.NextId()));
  (void)index.ViewFor(store.Snapshot());  // shares no chunk: build
  telemetry::MetricsSnapshot after = telemetry::Registry().Snapshot();

  EXPECT_EQ(HistogramCount(after, build) - HistogramCount(before, build), 2);
  EXPECT_EQ(HistogramCount(after, advance) - HistogramCount(before, advance),
            2);
}

TEST(TelemetryEndToEndTest, TraceEventsMatchCandidateDecisions) {
  telemetry::SetEnabled(true);
  telemetry::TraceSink& sink = telemetry::GlobalTrace();
  sink.SetCapacity(1 << 16);
  sink.Clear();
  sink.SetEnabled(true);

  Rng rng(77);
  GraphStore store;
  for (int i = 0; i < 40; ++i) store.Insert(AidsLikeGraph(&rng, 4, 9));
  QueryEngine engine(&store, {});
  std::vector<Graph> queries;
  for (int q = 0; q < 3; ++q) queries.push_back(AidsLikeGraph(&rng, 4, 9));

  CascadeStats total;
  std::set<uint64_t> trace_ids;
  for (const RangeResult& res : engine.RangeBatch(queries, 3)) {
    total.Merge(res.stats.cascade);
    EXPECT_NE(res.stats.trace_id, 0u);
    trace_ids.insert(res.stats.trace_id);
  }
  sink.SetEnabled(false);

  EXPECT_EQ(trace_ids.size(), queries.size());  // distinct queries
  std::vector<telemetry::TraceEvent> events = sink.Drain();
  // One event per (query, candidate) cascade decision. Candidates the
  // index dismissed never reach the cascade (that is the point of the
  // index), so they produce no trace events.
  EXPECT_EQ(static_cast<long>(events.size()),
            total.candidates - total.pruned_index);
  long by_tier[6] = {0, 0, 0, 0, 0, 0};
  for (const telemetry::TraceEvent& ev : events) {
    ASSERT_GE(ev.tier, 0);
    ASSERT_LE(ev.tier, 5);
    ++by_tier[ev.tier];
    EXPECT_TRUE(trace_ids.count(ev.query_id)) << ev.query_id;
    EXPECT_GE(ev.graph_id, 0);
    EXPECT_EQ(ev.cache_hit, ev.tier == 5);
    if (ev.tier == 0 && !ev.within) {
      EXPECT_EQ(ev.ged, -1);
    }
    if (ev.exact) {
      EXPECT_GE(ev.ged, 0);
    }
  }
  EXPECT_EQ(by_tier[0], total.pruned_invariant + total.passed_invariant);
  EXPECT_EQ(by_tier[1], total.pruned_branch);
  EXPECT_EQ(by_tier[2], total.decided_heuristic);
  EXPECT_EQ(by_tier[3], 0);  // no tier 3
  EXPECT_EQ(by_tier[4], total.decided_exact);
  EXPECT_EQ(by_tier[5], total.cache_hits);
}

#endif  // OTGED_TELEMETRY_COMPILED

// Per-query wall times and trace ids are first-class QueryStats fields,
// populated whether or not telemetry is compiled in.
TEST(TelemetryEndToEndTest, BatchQueriesReportIndividualWallTimes) {
  Rng rng(55);
  GraphStore store;
  for (int i = 0; i < 50; ++i) store.Insert(AidsLikeGraph(&rng, 4, 10));
  EngineOptions opt;
  opt.num_threads = 4;
  QueryEngine engine(&store, opt);
  std::vector<Graph> queries;
  for (int q = 0; q < 6; ++q) queries.push_back(AidsLikeGraph(&rng, 4, 10));

  auto start = std::chrono::steady_clock::now();
  std::vector<RangeResult> results = engine.RangeBatch(queries, 3);
  double outer_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_EQ(results.size(), queries.size());
  for (const RangeResult& res : results) {
    EXPECT_GT(res.stats.wall_ms, 0.0);
    // A query cannot take longer than the call that served it.
    EXPECT_LE(res.stats.wall_ms, outer_ms);
  }
  for (const TopKResult& res : engine.TopKBatch(queries, 3)) {
    EXPECT_GT(res.stats.wall_ms, 0.0);
    EXPECT_NE(res.stats.trace_id, 0u);
  }
}

}  // namespace
}  // namespace otged
