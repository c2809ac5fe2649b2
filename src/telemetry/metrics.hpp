/// \file metrics.hpp
/// \brief Process-wide lock-free metrics registry for the serving tier.
///
/// Three metric kinds, all safe to update from any thread without taking
/// a lock on the hot path:
///
///   Counter    monotone sum, sharded into cache-line-padded per-thread
///              atomic cells; Inc is one relaxed fetch_add on the
///              caller's stripe, so increments from the engine's thread
///              pool never serialize against each other.
///   Gauge      last-written value (Set) or running signed sum (Add) in
///              a single atomic — used for levels like the store size or
///              the store epoch where sharding has no meaning.
///   Histogram  log-linear bucketed distribution (8 sub-buckets per
///              power of two => <= 12.5% relative bucket width, exact
///              below 16), buckets sharded into per-thread stripes like
///              counters. Record is two relaxed fetch_adds. Percentiles
///              are estimated from the bucket midpoint at read time.
///
/// Metrics are registered by name on first use and never removed, so a
/// `Counter&` obtained once (typically via a function-local static in an
/// OTGED_* macro below) stays valid for the process lifetime. Names may
/// carry Prometheus-style labels inline: `otged_foo_total{tier="exact"}`.
/// Reading is always available: `Registry().Snapshot()` aggregates every
/// stripe into plain numbers without stopping writers (counts are
/// monotone, so a concurrent snapshot is simply a valid slightly-earlier
/// or slightly-later view).
///
/// Cost when off:
///   * compile time — defining OTGED_TELEMETRY_DISABLED turns every
///     OTGED_* macro into `do {} while (0)`: no statics, no branches, no
///     registry reference survives in the object code;
///   * run time — telemetry::SetEnabled(false) short-circuits the macros
///     to one relaxed atomic-bool load.
#ifndef OTGED_TELEMETRY_METRICS_HPP_
#define OTGED_TELEMETRY_METRICS_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

namespace otged {
namespace telemetry {

#ifdef OTGED_TELEMETRY_DISABLED
#define OTGED_TELEMETRY_COMPILED 0
#else
#define OTGED_TELEMETRY_COMPILED 1
#endif

/// Runtime master switch (default on). Flipping it only gates *new*
/// updates; already-registered metrics keep their values.
bool Enabled();
void SetEnabled(bool enabled);

/// Monotonic microsecond clock for latency metrics.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace internal {

constexpr int kStripes = 16;  ///< per-thread cell stripes per metric

/// Stable stripe for the calling thread (round-robin assignment).
int ThreadStripe();

struct alignas(64) PaddedAtomic {
  std::atomic<long> v{0};
};

}  // namespace internal

/// Monotone counter; Inc is wait-free (one relaxed fetch_add).
class Counter {
 public:
  // otged-lint: hot-path
  void Inc(long n = 1) {
    cells_[internal::ThreadStripe()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  long Value() const {
    long total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  internal::PaddedAtomic cells_[internal::kStripes];
};

/// Level metric: Set publishes an absolute value, Add adjusts it (both on
/// one atomic — gauges track shared levels, not per-thread sums).
class Gauge {
 public:
  // otged-lint: hot-path
  void Set(long v) { value_.store(v, std::memory_order_relaxed); }
  // otged-lint: hot-path
  void Add(long n) { value_.fetch_add(n, std::memory_order_relaxed); }
  long Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<long> value_{0};
};

/// Log-linear histogram bucket geometry, shared by the live histogram and
/// its snapshots. Values are non-negative integers (latencies in us).
struct HistogramBuckets {
  static constexpr int kSubBits = 3;  ///< 8 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kLinear = 2 * kSub;  ///< exact buckets for v < 16
  static constexpr int kMaxMajor = 62;
  static constexpr int kCount =
      kLinear + (kMaxMajor - kSubBits - 1) * kSub + kSub;

  static int BucketOf(long v);
  /// Smallest value mapping to bucket `b` (inclusive).
  static long LowerBound(int b);
  /// Largest value mapping to bucket `b` (inclusive).
  static long UpperBound(int b);
  /// Representative value reported for samples in bucket `b`.
  static double Midpoint(int b);
};

/// Aggregated histogram state, detached from the atomics.
struct HistogramSnapshot {
  long count = 0;
  long sum = 0;
  std::vector<std::pair<int, long>> buckets;  ///< (bucket index, count), asc

  double Mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0;
  }
  /// Nearest-rank percentile estimate (bucket midpoint); q in [0, 1].
  double Percentile(double q) const;
  /// Upper bound of the highest non-empty bucket (0 when empty).
  long Max() const;
};

/// Distribution metric; Record is wait-free (two relaxed fetch_adds on
/// the caller's stripe).
class Histogram {
 public:
  Histogram();
  void Record(long value);
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Stripe {
    std::atomic<long> sum{0};
    std::atomic<long> count{0};
  };
  // buckets_[stripe * kCount + bucket]; flat so one allocation serves all
  // stripes and aggregation is a linear sweep.
  std::vector<std::atomic<uint32_t>> buckets_;
  Stripe stripes_[internal::kStripes];
};

struct MetricsSnapshot {
  struct Named {
    std::string name;  ///< full name, possibly with {labels}
    std::string help;
    long value = 0;
  };
  struct NamedHistogram {
    std::string name;
    std::string help;
    HistogramSnapshot hist;
  };
  std::vector<Named> counters;            ///< sorted by name
  std::vector<Named> gauges;              ///< sorted by name
  std::vector<NamedHistogram> histograms; ///< sorted by name

  /// Counter value by exact full name, or `fallback` when absent.
  long CounterValue(const std::string& name, long fallback = 0) const;
};

/// Name -> metric table. Registration takes a mutex (first use per call
/// site only); updates through the returned references are lock-free.
/// Returned references are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name, const std::string& help = "")
      EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name, const std::string& help = "")
      EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name,
                          const std::string& help = "") EXCLUDES(mu_);

  /// Aggregates every metric into plain values. Never blocks writers.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Zeroes every registered metric (handles stay valid). Meant for test
  /// isolation and `search_cli metrics`; concurrent updates are not lost
  /// atomically-with the reset, they simply land after it.
  void Reset() EXCLUDES(mu_);

 private:
  template <typename M>
  struct Entry {
    std::unique_ptr<M> metric;
    std::string help;
  };

  mutable Mutex mu_;
  std::map<std::string, Entry<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, Entry<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, Entry<Histogram>> histograms_ GUARDED_BY(mu_);
};

/// The process-wide registry every OTGED_* macro records into.
MetricsRegistry& Registry();

}  // namespace telemetry
}  // namespace otged

// ---------------------------------------------------------------- macros
// Instrumentation sites use these so a build with OTGED_TELEMETRY_DISABLED
// contains no telemetry code at all. The `static` reference makes the
// registry lookup a one-time cost per call site.
#if OTGED_TELEMETRY_COMPILED

#define OTGED_TELEMETRY_ON() (::otged::telemetry::Enabled())

#define OTGED_COUNT_N(name, help, n)                                      \
  do {                                                                    \
    if (::otged::telemetry::Enabled()) {                                  \
      static ::otged::telemetry::Counter& otged_counter_ =                \
          ::otged::telemetry::Registry().GetCounter((name), (help));      \
      otged_counter_.Inc(n);                                              \
    }                                                                     \
  } while (0)

#define OTGED_GAUGE_SET(name, help, v)                                    \
  do {                                                                    \
    if (::otged::telemetry::Enabled()) {                                  \
      static ::otged::telemetry::Gauge& otged_gauge_ =                    \
          ::otged::telemetry::Registry().GetGauge((name), (help));        \
      otged_gauge_.Set(v);                                                \
    }                                                                     \
  } while (0)

#define OTGED_HIST_RECORD(name, help, value)                              \
  do {                                                                    \
    if (::otged::telemetry::Enabled()) {                                  \
      static ::otged::telemetry::Histogram& otged_hist_ =                 \
          ::otged::telemetry::Registry().GetHistogram((name), (help));    \
      otged_hist_.Record(value);                                          \
    }                                                                     \
  } while (0)

#else  // telemetry compiled out

#define OTGED_TELEMETRY_ON() (false)
#define OTGED_COUNT_N(name, help, n) do {} while (0)
#define OTGED_GAUGE_SET(name, help, v) do {} while (0)
#define OTGED_HIST_RECORD(name, help, value) do {} while (0)

#endif  // OTGED_TELEMETRY_COMPILED

#define OTGED_COUNT(name, help) OTGED_COUNT_N(name, help, 1)

#endif  // OTGED_TELEMETRY_METRICS_HPP_
