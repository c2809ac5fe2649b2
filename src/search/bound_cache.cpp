#include "search/bound_cache.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace otged {

namespace {
constexpr size_t kNumShards = 16;

constexpr const char* kHitsName = "otged_bound_cache_hits_total";
constexpr const char* kMissesName = "otged_bound_cache_misses_total";
}

BoundCache::BoundCache(size_t capacity)
    : shard_capacity_(std::max<size_t>(1, capacity / kNumShards)) {
  shards_.reserve(kNumShards);
  for (size_t s = 0; s < kNumShards; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

std::optional<int> BoundCache::Lookup(uint64_t query_fp, int graph_id) {
  const Key key{query_fp, graph_id};
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    OTGED_COUNT(kMissesName, "bound-cache lookups that found no entry");
    return std::nullopt;
  }
  OTGED_COUNT(kHitsName, "bound-cache lookups answered from the cache");
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void BoundCache::Insert(uint64_t query_fp, int graph_id, int exact_ged) {
  const Key key{query_fp, graph_id};
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->second = exact_ged;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.map.size() >= shard_capacity_) {
    OTGED_COUNT("otged_bound_cache_evictions_total",
                "entries evicted by a shard's LRU at capacity");
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
  OTGED_COUNT("otged_bound_cache_inserts_total",
              "proven-exact distances recorded in the bound cache");
  shard.lru.emplace_front(key, exact_ged);
  shard.map.emplace(key, shard.lru.begin());
}

void BoundCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
  }
}

size_t BoundCache::Size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

}  // namespace otged
