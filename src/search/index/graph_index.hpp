/// \file graph_index.hpp
/// \brief Snapshot-consistent two-level candidate-generation index.
///
/// Sits between GraphStore and FilterCascade: given a pinned snapshot,
/// the engine asks the index for a range query's candidate id list
/// instead of scanning every stored graph. Two levels, both pruning
/// strictly via admissible lower bounds (so indexed results are
/// byte-identical to a linear scan):
///
///   level 1  partition screen   (n, m) signature distance + descending
///                               degree min/max envelope; prunes whole
///                               partitions without opening them
///   level 2  label postings     inverted label index inside a
///                               partition; O(1) per posting entry, and
///                               members untouched by the query's labels
///                               are dismissed wholesale (at tau == 0 a
///                               WL-hash prefix table is used instead)
///
/// Top-k reads use it too: each level of a deepening top-k read is a
/// range candidate read at that level (see query_engine.hpp).
///
/// Consistency model: an IndexView is immutable and tied to one store
/// snapshot, which it holds. GraphIndex caches the view for the most
/// recent snapshot it served and advances it to the next one in
/// O(changes): chunks the two snapshots share by pointer are skipped
/// unread, and an id merge walk runs over the entries of the other
/// chunks only, in either direction (an older snapshot diffs backward).
/// The touched partitions are patched copy-on-write; the rest are
/// shared. A snapshot that shares no chunk with the cached one (the
/// first view, any Restore) is built from scratch. Concurrent queries
/// that pinned older views keep using them untouched. Nothing of the
/// index is persisted: it is derived data, rebuilt from the store on
/// first use.
#ifndef OTGED_SEARCH_INDEX_GRAPH_INDEX_HPP_
#define OTGED_SEARCH_INDEX_GRAPH_INDEX_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/thread_annotations.hpp"
#include "search/graph_store.hpp"
#include "search/index/index_stats.hpp"
#include "search/index/partition_table.hpp"

namespace otged {

/// Must stay empty: the index has no settable options (the tau == 0
/// prefix width is kWlPrefixBits). Kept only because gedbench still
/// builds a GraphIndex from EngineOptions::index.
struct IndexOptions {};

/// The index at one store epoch. Immutable; safe to share across
/// threads; valid for as long as the shared_ptr is held.
class IndexView {
 public:
  uint64_t epoch() const { return snap_->epoch(); }
  int Size() const { return snap_->Size(); }

  /// Range candidate generation (levels 1 + 2): appends ascending stable
  /// ids of every graph whose partition/label lower bounds are <= tau.
  /// Superset of the true hit set; the cascade re-checks the full tier-0
  /// bound per candidate.
  void RangeCandidates(const GraphInvariants& qi, int tau,
                       std::vector<int>* out_ids, IndexStats* stats) const;

 private:
  friend class GraphIndex;

  /// The snapshot indexed; it keeps every partition member alive.
  std::shared_ptr<const StoreSnapshot> snap_;
  PartitionMap partitions_;
};

/// Maintains the current IndexView for a store. Thread-safe; queries in
/// flight keep whatever view they pinned.
class GraphIndex {
 public:
  explicit GraphIndex(const IndexOptions& = IndexOptions()) {}

  /// The view for `snap`, building or incrementally advancing the cached
  /// view as needed.
  std::shared_ptr<const IndexView> ViewFor(
      const std::shared_ptr<const StoreSnapshot>& snap) EXCLUDES(mu_);

 private:
  std::shared_ptr<const IndexView> BuildFull(
      const std::shared_ptr<const StoreSnapshot>& snap) REQUIRES(mu_);
  /// The cached view advanced to `snap` by diffing the chunks the two
  /// snapshots do not share; nullptr when they share none.
  std::shared_ptr<const IndexView> Advance(
      const std::shared_ptr<const StoreSnapshot>& snap) REQUIRES(mu_);

  Mutex mu_;
  std::shared_ptr<const IndexView> view_ GUARDED_BY(mu_);
};

}  // namespace otged

#endif  // OTGED_SEARCH_INDEX_GRAPH_INDEX_HPP_
