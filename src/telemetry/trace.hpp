/// \file trace.hpp
/// \brief Per-candidate cascade tracing with bounded memory.
///
/// While metrics aggregate, traces explain: when tracing is enabled the
/// QueryEngine records one TraceEvent per (query, candidate) cascade
/// decision — which tier settled the pair, the bound values that did it,
/// solver effort, cache outcome and per-tier wall time. Events land in a
/// fixed-capacity ring buffer (oldest overwritten first, overwrites
/// counted), so tracing a long-running server costs a constant amount of
/// memory no matter how many queries it serves. The buffer is dumpable as
/// a JSON array for offline analysis.
///
/// Tracing is off by default (metrics stay on): each event is dozens of
/// bytes and a clock read per tier, which is real hot-path weight. Turn
/// it on around the window you want to inspect:
///
///   telemetry::GlobalTrace().SetEnabled(true);
///   ... serve queries ...
///   std::string json = telemetry::GlobalTrace().DumpJson();
#ifndef OTGED_TELEMETRY_TRACE_HPP_
#define OTGED_TELEMETRY_TRACE_HPP_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

namespace otged {
namespace telemetry {

/// One (query, candidate) cascade decision. `tier` matches
/// CascadeTier: 0 invariant, 1 branch, 2 heuristic, 4 exact, 5 bound-cache
/// hit (3 is unused, so `tier_us[3]` stays 0).
struct TraceEvent {
  uint64_t query_id = 0;   ///< engine-assigned per-query trace id
  int graph_id = -1;       ///< stable store id of the candidate
  int tier = -1;           ///< deciding tier (CascadeTier as int)
  int lb = -1;             ///< best admissible lower bound established
  int ub = -1;             ///< best feasible upper bound (-1: none needed)
  int ged = -1;            ///< reported distance (-1: dismissed by a LB)
  bool within = false;     ///< candidate passed (GED <= tau)
  bool exact = false;      ///< `ged` proven exact
  bool cache_hit = false;  ///< answered from the bound cache
  long exact_expansions = 0;  ///< branch-and-bound nodes visited
  double tier_us[5] = {0, 0, 0, 0, 0};  ///< wall time spent in each tier
  double total_us = 0;     ///< end-to-end evaluation wall time
};

/// Fixed-capacity concurrent ring buffer of TraceEvents. Record takes a
/// mutex — tracing is an opt-in debugging mode, not part of the always-on
/// metrics path, so simplicity wins over lock-freedom here.
class TraceSink {
 public:
  explicit TraceSink(size_t capacity = 8192);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Replaces the buffer with an empty one of the new capacity.
  void SetCapacity(size_t capacity) EXCLUDES(mu_);
  size_t capacity() const EXCLUDES(mu_);

  void Record(const TraceEvent& event) EXCLUDES(mu_);

  /// Events currently buffered, oldest first.
  std::vector<TraceEvent> Events() const EXCLUDES(mu_);
  /// Events(), then clear the buffer (recorded/dropped totals persist).
  std::vector<TraceEvent> Drain() EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

  size_t Size() const EXCLUDES(mu_);
  /// Events ever recorded / overwritten before being read.
  uint64_t TotalRecorded() const EXCLUDES(mu_);
  uint64_t Dropped() const EXCLUDES(mu_);

  /// The buffered events as a JSON array (one object per event), plus a
  /// trailing meta object with recorded/dropped totals.
  std::string DumpJson() const EXCLUDES(mu_);

 private:
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  size_t capacity_ GUARDED_BY(mu_);
  size_t head_ GUARDED_BY(mu_) = 0;  ///< next overwrite slot when full
  uint64_t recorded_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

/// The process-wide sink the QueryEngine records into.
TraceSink& GlobalTrace();

}  // namespace telemetry
}  // namespace otged

#endif  // OTGED_TELEMETRY_TRACE_HPP_
