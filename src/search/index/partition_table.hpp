/// \file partition_table.hpp
/// \brief Signature partitions with inverted label postings — levels 1
/// and 2 of the candidate-generation index.
///
/// Graphs are partitioned by their exact (num_nodes, num_edges)
/// signature. A range query with threshold tau screens partitions
/// wholesale: GED changes num_nodes by at most one per node edit and
/// num_edges by at most one per edge edit, so a partition with
/// max(|dn|, |dm|) > tau cannot contain a hit; a descending-degree
/// min/max envelope sharpens the screen (the envelope L1 gap lower
/// bounds every member's degree-sequence bound). Only surviving
/// partitions are opened.
///
/// Inside an open partition, the inverted index maps each node label to
/// the members containing it. The label-count lower bound
///   max(n_q, n_g) - common + |m_q - m_g|   (common = sum of min counts)
/// is admissible, so a member passes only if
///   common >= max(n_q, n_part) + |dm| - tau.
/// When that threshold is positive, only members touched by the query's
/// posting lists can reach it — untouched members (and with them entire
/// posting lists for labels the query lacks) are dismissed without being
/// visited. At tau == 0 a WL-hash prefix table replaces the walk: WL
/// equality is necessary for GED == 0, so only the query's hash bucket
/// is opened.
#ifndef OTGED_SEARCH_INDEX_PARTITION_TABLE_HPP_
#define OTGED_SEARCH_INDEX_PARTITION_TABLE_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "search/graph_store.hpp"
#include "search/index/index_stats.hpp"

namespace otged {

/// Width of the tau == 0 WL-hash prefix tables. Candidates are always
/// confirmed against the full hash, so the width only trades space for
/// bucket selectivity.
constexpr int kWlPrefixBits = 16;

/// One (num_nodes, num_edges) partition; immutable once built, shared
/// between index views (copy-on-write at the partition level).
struct IndexPartition {
  int num_nodes = 0;
  int num_edges = 0;
  /// Members ascending by stable id. Not owned: every view that holds
  /// this partition also holds a snapshot containing each member.
  std::vector<const StoreEntry*> members;

  /// Inverted index: for each label present in some member, the members
  /// containing it with their multiplicity. Ascending by label; inner
  /// lists ascending by member slot.
  struct Posting {
    Label label = 0;
    std::vector<std::pair<int32_t, int32_t>> counts;  ///< (member slot, count)
  };
  std::vector<Posting> postings;

  /// Positional min/max over members' ascending degree sequences (all
  /// members share num_nodes, so the sequences align index-by-index).
  std::vector<int> degree_min;
  std::vector<int> degree_max;

  /// (wl_hash >> (64 - kWlPrefixBits), member slot) ascending — the
  /// tau == 0 prefix table. Candidate buckets are confirmed against the
  /// full hash before emitting.
  std::vector<std::pair<uint64_t, int32_t>> wl_prefixes;
};

/// Map key for a partition; iteration order is (num_nodes, num_edges).
uint64_t PartitionKey(int num_nodes, int num_edges);

std::shared_ptr<const IndexPartition> BuildPartition(
    int num_nodes, int num_edges, std::vector<const StoreEntry*> members);

using PartitionMap =
    std::map<uint64_t, std::shared_ptr<const IndexPartition>>;

/// Groups a snapshot's entries (its chunks, ascending by id) into
/// partitions.
PartitionMap BuildPartitionMap(
    const std::vector<std::shared_ptr<const StoreChunk>>& chunks);

/// Copy-on-write update: untouched partitions are shared with `base`;
/// each touched one is patched, not rebuilt: its members are spliced,
/// its posting counts and WL prefixes filtered, renumbered and extended,
/// and its degree envelope recomputed only where a removed member lay
/// on it. A patched partition equals BuildPartition over the same
/// members. Costs O(touched partitions' postings), not O(corpus); only
/// the added and removed entries are dereferenced. `removed` names
/// members by id.
PartitionMap ApplyPartitionDiff(const PartitionMap& base,
                                const std::vector<const StoreEntry*>& added,
                                const std::vector<const StoreEntry*>& removed);

/// Level 1: appends partitions that survive the signature and degree
/// envelope screens to `opened`; accounts pruned members in `stats`.
void ScreenPartitions(const PartitionMap& parts, const GraphInvariants& qi,
                      int tau,
                      std::vector<const IndexPartition*>* opened,
                      IndexStats* stats);

/// Level 2: appends the ids of members of `part` whose label-count lower
/// bound is <= tau (at tau == 0: whose WL hash matches). Run-length
/// encoded query labels in `query_rle` (ascending by label).
void PartitionLabelCandidates(
    const IndexPartition& part, const GraphInvariants& qi,
    const std::vector<std::pair<Label, int>>& query_rle, int tau,
    std::vector<int>* out_ids, IndexStats* stats);

}  // namespace otged

#endif  // OTGED_SEARCH_INDEX_PARTITION_TABLE_HPP_
