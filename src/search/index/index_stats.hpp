/// \file index_stats.hpp
/// \brief Per-query observability for the candidate-generation index.
#ifndef OTGED_SEARCH_INDEX_INDEX_STATS_HPP_
#define OTGED_SEARCH_INDEX_INDEX_STATS_HPP_

namespace otged {

/// What the index did for one range query (after Merge: a batch, or the
/// levels of a top-k read).
/// Pruning is attributed to the *first* level that dismissed a graph:
/// partition screening (size signature / degree envelope) or the label
/// posting walk (including the WL-hash table at tau == 0). `scanned`
/// counts every graph in the pinned snapshot, so
/// `scanned == candidates + PrunedTotal()` per query.
struct IndexStats {
  long scanned = 0;           ///< corpus size the query ran against
  long partition_pruned = 0;  ///< dismissed without opening the partition
  long label_pruned = 0;      ///< dismissed by the posting walk / WL table
  long candidates = 0;        ///< survivors handed to the filter cascade
  long partitions_seen = 0;
  long partitions_opened = 0;
  double partition_us = 0.0;  ///< wall time in partition screening
  double label_us = 0.0;      ///< wall time in posting walks
  /// Always 0: the index has no third level. These three stay only
  /// because gedbench/src/main.cpp still reads them; remove them together
  /// with those reads.
  long vptree_pruned = 0;
  long vp_nodes_visited = 0;
  double vptree_us = 0.0;

  long PrunedTotal() const { return partition_pruned + label_pruned; }

  void Merge(const IndexStats& o) {
    scanned += o.scanned;
    partition_pruned += o.partition_pruned;
    label_pruned += o.label_pruned;
    candidates += o.candidates;
    partitions_seen += o.partitions_seen;
    partitions_opened += o.partitions_opened;
    partition_us += o.partition_us;
    label_us += o.label_us;
  }
};

}  // namespace otged

#endif  // OTGED_SEARCH_INDEX_INDEX_STATS_HPP_
