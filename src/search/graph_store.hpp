/// \file graph_store.hpp
/// \brief Dynamic indexed graph corpus for similarity search: owns the
/// graphs of a database and precomputes, per graph, the cheap isomorphism
/// invariants the filter cascade consumes (WL hash, sorted node-label
/// multiset, sorted degree sequence, node/edge counts). Invariants are
/// computed once at ingest, so a filter evaluation against a stored graph
/// touches no adjacency structure until the bipartite tier.
///
/// The store is mutable while serving: Insert/Erase build a new immutable
/// StoreSnapshot and publish it under a mutex. A snapshot keeps its
/// entries in chunks of at most kStoreChunkSize shared per-graph entries;
/// a mutation copies the chunks it touches plus the chunk-pointer vector
/// (O(kStoreChunkSize + size / kStoreChunkSize) pointers, zero graphs)
/// and shares every other chunk with the previous snapshot. Queries pin
/// one snapshot for their whole lifetime, so an in-flight query always
/// sees a consistent corpus — the one tagged with the snapshot's epoch —
/// no matter how many mutations land meanwhile. Graph ids are stable and
/// never reused: Insert assigns the next id from a monotone counter, and
/// Erase retires the id forever. Every snapshot also carries a lineage:
/// Insert/AddAll/Erase keep it, Restore draws a fresh one, so within one
/// lineage every id always names the same graph.
#ifndef OTGED_SEARCH_GRAPH_STORE_HPP_
#define OTGED_SEARCH_GRAPH_STORE_HPP_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"
#include "graph/dataset.hpp"
#include "graph/graph.hpp"

namespace otged {

/// Per-graph invariants. Equal invariants are necessary (not sufficient)
/// for GED == 0; differences yield admissible GED lower bounds.
struct GraphInvariants {
  int num_nodes = 0;
  int num_edges = 0;
  uint64_t wl_hash = 0;                ///< 3-round WL color-refinement hash
  std::vector<Label> sorted_labels;    ///< node-label multiset, ascending
  std::vector<int> sorted_degrees;     ///< degree sequence, ascending

  bool operator==(const GraphInvariants& o) const {
    return num_nodes == o.num_nodes && num_edges == o.num_edges &&
           wl_hash == o.wl_hash && sorted_labels == o.sorted_labels &&
           sorted_degrees == o.sorted_degrees;
  }
};

/// Computes the invariants of one graph (O(n log n + m)).
GraphInvariants ComputeInvariants(const Graph& g);

/// Orders a pair by node count — every solver in the repo requires
/// n1 <= n2. Returns {smaller, larger}; ties keep argument order.
inline std::pair<const Graph*, const Graph*> OrderBySize(const Graph& a,
                                                         const Graph& b) {
  if (a.NumNodes() <= b.NumNodes()) return {&a, &b};
  return {&b, &a};
}

/// Admissible GED lower bound from invariants alone, O(n):
/// max(label-set bound of Eq. 22, degree-sequence edge bound). The
/// degree bound pairs the two ascending degree sequences (zero-padded)
/// index-by-index; every edge edit moves two degrees by one, so
/// ceil(L1/2) never exceeds the number of edge edits.
int InvariantLowerBound(const GraphInvariants& a, const GraphInvariants& b);

namespace detail {

/// Scalar / SIMD twins of the degree-sequence L1 term inside
/// InvariantLowerBound (dispatch on simd::Enabled()). Integer L1 is
/// exact in both, so the bounds are identical; the SIMD twin handles the
/// front zero-padding scalar and runs the aligned overlap through a
/// vector |a - b| reduction.
int DegreeSequenceEdgeBoundScalar(const std::vector<int>& a,
                                  const std::vector<int>& b);
int DegreeSequenceEdgeBoundSimd(const std::vector<int>& a,
                                const std::vector<int>& b);

}  // namespace detail

/// One stored graph with its precomputed invariants; shared between
/// snapshots, immutable after ingest.
struct StoreEntry {
  int id = -1;
  Graph graph;
  GraphInvariants invariants;
};

/// Entries per snapshot chunk. A write copies one chunk (up to this many
/// entry pointers) and the chunk-pointer vector (size / kStoreChunkSize
/// pointers); the index advance walks the entries of every chunk a write
/// replaced. 512 keeps each copy to a few hundred pointers at 100k
/// graphs (the two copies are equal at chunk size sqrt(size) ~ 320).
constexpr int kStoreChunkSize = 512;

/// A run of slot-consecutive entries, ascending by id, never empty.
/// Immutable once published; shared between snapshots.
using StoreChunk = std::vector<std::shared_ptr<const StoreEntry>>;

/// An immutable view of the corpus at one epoch. Slots are dense
/// [0, Size()) and ascend by stable id (mutations preserve insertion
/// order, and ids are assigned monotonically). Safe to read from any
/// number of threads; stays valid for as long as the shared_ptr is held,
/// regardless of later store mutations.
class StoreSnapshot {
 public:
  int Size() const { return size_; }
  uint64_t epoch() const { return epoch_; }
  /// Process-unique tag of the id -> graph binding. A default-constructed
  /// snapshot draws a fresh one; the copies mutations make keep it, so
  /// two snapshots with equal lineage never bind one id to two graphs.
  uint64_t lineage() const { return lineage_; }

  int id(int slot) const { return entry(slot).id; }
  const Graph& graph(int slot) const { return entry(slot).graph; }
  const GraphInvariants& invariants(int slot) const {
    return entry(slot).invariants;
  }

  /// Slot of a stable id (binary search over the ascending ids), or -1.
  int SlotOf(int id) const;

  /// The chunks in slot order. A mutation replaces only the chunks it
  /// touches, so two snapshots of one store share every other chunk by
  /// pointer; the index diffs snapshots by that identity.
  const std::vector<std::shared_ptr<const StoreChunk>>& chunks() const {
    return chunks_;
  }

 private:
  friend class GraphStore;

  /// Index of the chunk holding `slot`.
  size_t ChunkOf(int slot) const {
    return static_cast<size_t>(
               std::upper_bound(starts_.begin(), starts_.end(), slot) -
               starts_.begin()) -
           1;
  }
  const StoreEntry& entry(int slot) const {
    OTGED_DCHECK(slot >= 0 && slot < Size());
    const size_t c = ChunkOf(slot);
    return *(*chunks_[c])[static_cast<size_t>(slot - starts_[c])];
  }

  /// Appends entries (ids above every present one): fills a copy of the
  /// tail chunk, then fresh chunks.
  void Append(std::vector<std::shared_ptr<const StoreEntry>> entries);
  /// Removes one slot from a copy of its chunk. A chunk left empty is
  /// dropped; otherwise it is merged with a neighbour when the two fit
  /// one chunk, so adjacent chunks always hold more than kStoreChunkSize
  /// entries together and there are at most 2 * Size() / kStoreChunkSize
  /// + 1 chunks however the erases fall.
  void EraseSlot(int slot);

  static uint64_t NextLineage();

  uint64_t epoch_ = 0;
  uint64_t lineage_ = NextLineage();
  int size_ = 0;
  std::vector<std::shared_ptr<const StoreChunk>> chunks_;
  std::vector<int> starts_;  ///< first slot of each chunk
};

/// A dynamic graph database serving concurrent readers. Mutations
/// (Insert/Erase/Restore) are serialized internally and publish a fresh
/// snapshot; readers either pin a Snapshot() (concurrent-safe) or use the
/// id-based accessors below (single-threaded convenience — the returned
/// references are only guaranteed until the next mutation).
class GraphStore {
 public:
  GraphStore();
  // Move transfers another store's state: the analysis cannot pair this
  // object's members with the source's mutex, so the bodies are exempt
  // (exclusivity is guaranteed by move semantics plus o.mu_).
  GraphStore(GraphStore&& o) noexcept NO_THREAD_SAFETY_ANALYSIS;
  GraphStore& operator=(GraphStore&& o) noexcept NO_THREAD_SAFETY_ANALYSIS;
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Ingests one graph; returns its stable id (never reused).
  int Insert(Graph g) EXCLUDES(mu_);
  /// Ingests every graph of a dataset, in order, as ONE mutation: ids
  /// are assigned consecutively but a single snapshot (one epoch bump)
  /// is published. The graphs fill the tail chunk and then fresh chunks.
  void AddAll(const std::vector<Graph>& graphs) EXCLUDES(mu_);
  /// Removes the graph with the given id; returns false if absent. The id
  /// is retired permanently and the lineage is kept: no later snapshot of
  /// this lineage binds the id again, so a cached distance for it is
  /// never read again.
  bool Erase(int id) EXCLUDES(mu_);

  /// Number of graphs in the current snapshot.
  int Size() const EXCLUDES(mu_);
  /// Epoch of the current snapshot; bumped by every mutation.
  uint64_t Epoch() const EXCLUDES(mu_);
  /// Smallest id a future Insert can return; ids below it are spoken for.
  int NextId() const EXCLUDES(mu_);
  bool Contains(int id) const EXCLUDES(mu_);

  /// Pins the current snapshot. O(1); the snapshot (and every graph in
  /// it) stays alive and immutable while the pointer is held.
  std::shared_ptr<const StoreSnapshot> Snapshot() const EXCLUDES(mu_);

  /// Id-based accessors against the current snapshot. The id must be
  /// present (OTGED_CHECK). References are invalidated by mutations —
  /// concurrent readers must hold a Snapshot() instead.
  const Graph& graph(int id) const EXCLUDES(mu_);
  const GraphInvariants& invariants(int id) const EXCLUDES(mu_);

  /// Replaces the whole corpus (persistence load). `entries` must be
  /// strictly increasing by id; invariants are recomputed from scratch.
  /// The new snapshot starts a fresh lineage: an id may now name a
  /// different graph, so caches keyed on this store must flush.
  /// The id counter only moves forward: max(current, next_id, max id + 1).
  /// Returns false (store and lineage unchanged) when the id sequence is
  /// invalid.
  bool Restore(std::vector<std::pair<int, Graph>> entries, int next_id)
      EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::shared_ptr<const StoreSnapshot> snap_ GUARDED_BY(mu_);
  int next_id_ GUARDED_BY(mu_) = 0;
};

}  // namespace otged

#endif  // OTGED_SEARCH_GRAPH_STORE_HPP_
