/// \file bound_cache.hpp
/// \brief Sharded LRU cache of verified (query, stored-graph) distances.
///
/// The cache only stores distances the cascade *proved exact* — an
/// admissible lower bound meeting a feasible upper bound, or a completed
/// branch-and-bound run. Exact GED is a pure function of the graph pair,
/// so a hit is correct for any tau (a range read's or a top-k level's),
/// and cache contents never depend on the order or thresholds of past queries;
/// warm-cache serving therefore stays deterministic. Keys pair the query
/// graph's content fingerprint with the stored graph's stable id, so an
/// entry holds for as long as the id names the same graph: within one
/// snapshot lineage (see StoreSnapshot::lineage). The owner calls Clear()
/// when the lineage changes. An erased graph's entries are never looked
/// up again, so they sink to their shard's LRU tail and go before any
/// entry still in use.
///
/// Sharded by key hash: lookups and inserts from the engine's thread pool
/// contend only within a shard, and each shard runs its own LRU.
#ifndef OTGED_SEARCH_BOUND_CACHE_HPP_
#define OTGED_SEARCH_BOUND_CACHE_HPP_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"

namespace otged {

class BoundCache {
 public:
  /// `capacity` is the total entry budget, split evenly across shards.
  explicit BoundCache(size_t capacity = 1 << 16);

  /// Exact GED of (query with this fingerprint, stored graph id), if
  /// known. A hit refreshes the entry's LRU position.
  std::optional<int> Lookup(uint64_t query_fp, int graph_id);

  /// Records a proven-exact distance; refreshes on re-insert. Evicts the
  /// shard's least-recently-used entry when the shard is full.
  void Insert(uint64_t query_fp, int graph_id, int exact_ged);

  void Clear();
  size_t Size() const;

 private:
  struct Key {
    uint64_t fp;
    int id;
    bool operator==(const Key& o) const { return fp == o.fp && id == o.id; }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.fp ^ (static_cast<uint64_t>(k.id) * 0x9e3779b97f4a7c15ull);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };
  struct Shard {
    mutable Mutex mu;
    /// front = most recently used
    std::list<std::pair<Key, int>> lru GUARDED_BY(mu);
    std::unordered_map<Key, std::list<std::pair<Key, int>>::iterator, KeyHash>
        map GUARDED_BY(mu);
  };

  Shard& ShardFor(const Key& k) {
    return *shards_[KeyHash{}(k) % shards_.size()];
  }

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace otged

#endif  // OTGED_SEARCH_BOUND_CACHE_HPP_
