#include "search/graph_store.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "graph/wl_hash.hpp"
#include "telemetry/metrics.hpp"

#define OTGED_STORE_GAUGES(snap)                                          \
  do {                                                                    \
    OTGED_GAUGE_SET("otged_store_epoch", "epoch of the published snapshot", \
                    static_cast<long>((snap)->epoch_));                   \
    OTGED_GAUGE_SET("otged_store_size", "graphs in the published snapshot", \
                    (snap)->Size());                                      \
  } while (0)

namespace otged {

GraphInvariants ComputeInvariants(const Graph& g) {
  GraphInvariants inv;
  inv.num_nodes = g.NumNodes();
  inv.num_edges = g.NumEdges();
  inv.wl_hash = WlHash(g);
  inv.sorted_labels.reserve(g.NumNodes());
  inv.sorted_degrees.reserve(g.NumNodes());
  for (int v = 0; v < g.NumNodes(); ++v) {
    inv.sorted_labels.push_back(g.label(v));
    inv.sorted_degrees.push_back(g.Degree(v));
  }
  std::sort(inv.sorted_labels.begin(), inv.sorted_labels.end());
  std::sort(inv.sorted_degrees.begin(), inv.sorted_degrees.end());
  return inv;
}

namespace {

/// Multiset symmetric-difference accounting of Eq. (22) over two sorted
/// label vectors: a relabel fixes one surplus and one deficit label, an
/// insertion fixes one, so node ops >= max(surplus, deficit).
int LabelMultisetNodeBound(const std::vector<Label>& a,
                           const std::vector<Label>& b) {
  size_t i = 0, j = 0;
  int surplus = 0, deficit = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i, ++j;
    } else if (a[i] < b[j]) {
      ++surplus, ++i;
    } else {
      ++deficit, ++j;
    }
  }
  surplus += static_cast<int>(a.size() - i);
  deficit += static_cast<int>(b.size() - j);
  return std::max(surplus, deficit);
}

}  // namespace

int DegreeSequenceEdgeBound(const std::vector<int>& a,
                            const std::vector<int>& b) {
  // Zero-padding the shorter (ascending) sequence at the front makes the
  // padded region a plain prefix sum of the longer one; the rest pairs
  // s[i] with l[pad + i].
  const std::vector<int>& s = a.size() <= b.size() ? a : b;
  const std::vector<int>& l = a.size() <= b.size() ? b : a;
  const size_t pad = l.size() - s.size();
  long l1 = 0;
  for (size_t i = 0; i < pad; ++i) l1 += std::abs(l[i]);
  for (size_t i = 0; i < s.size(); ++i) l1 += std::abs(s[i] - l[pad + i]);
  return static_cast<int>((l1 + 1) / 2);
}

int InvariantLowerBound(const GraphInvariants& a, const GraphInvariants& b) {
  int label_bound = LabelMultisetNodeBound(a.sorted_labels, b.sorted_labels) +
                    std::abs(a.num_edges - b.num_edges);
  return std::max(label_bound, DegreeSequenceEdgeBound(a.sorted_degrees,
                                                       b.sorted_degrees));
}

uint64_t StoreSnapshot::NextLineage() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int StoreSnapshot::SlotOf(int id) const {
  // The first chunk whose last id is >= id is the only one that can
  // hold it.
  const auto c = std::lower_bound(
      chunks_.begin(), chunks_.end(), id,
      [](const std::shared_ptr<const StoreChunk>& ch, int v) {
        return ch->back()->id < v;
      });
  if (c == chunks_.end()) return -1;
  const auto it = std::lower_bound(
      (*c)->begin(), (*c)->end(), id,
      [](const std::shared_ptr<const StoreEntry>& e, int v) {
        return e->id < v;
      });
  if ((*it)->id != id) return -1;
  return starts_[static_cast<size_t>(c - chunks_.begin())] +
         static_cast<int>(it - (*c)->begin());
}

void StoreSnapshot::Append(
    std::vector<std::shared_ptr<const StoreEntry>> entries) {
  constexpr size_t kChunk = kStoreChunkSize;
  size_t next = 0;
  if (!chunks_.empty() && chunks_.back()->size() < kChunk) {
    auto tail = std::make_shared<StoreChunk>(*chunks_.back());
    const size_t take = std::min(kChunk - tail->size(), entries.size());
    tail->insert(tail->end(), std::make_move_iterator(entries.begin()),
                 std::make_move_iterator(entries.begin() +
                                         static_cast<long>(take)));
    chunks_.back() = std::move(tail);
    next = take;
    size_ += static_cast<int>(take);
  }
  while (next < entries.size()) {
    const size_t take = std::min(kChunk, entries.size() - next);
    auto chunk = std::make_shared<StoreChunk>(
        std::make_move_iterator(entries.begin() + static_cast<long>(next)),
        std::make_move_iterator(entries.begin() +
                                static_cast<long>(next + take)));
    chunks_.push_back(std::move(chunk));
    starts_.push_back(size_);
    next += take;
    size_ += static_cast<int>(take);
  }
}

void StoreSnapshot::EraseSlot(int slot) {
  const size_t c = ChunkOf(slot);
  if (chunks_[c]->size() == 1) {
    chunks_.erase(chunks_.begin() + static_cast<long>(c));
    starts_.erase(starts_.begin() + static_cast<long>(c));
  } else {
    auto chunk = std::make_shared<StoreChunk>(*chunks_[c]);
    chunk->erase(chunk->begin() + (slot - starts_[c]));
    chunks_[c] = std::move(chunk);
  }
  for (size_t d = c; d < starts_.size(); ++d)
    if (starts_[d] > slot) --starts_[d];
  --size_;
  // Merge chunk m with chunk m + 1 when they fit one chunk; an erase can
  // only break that bound for the pairs around chunk c.
  const auto fits = [this](size_t m) {
    return m + 1 < chunks_.size() &&
           chunks_[m]->size() + chunks_[m + 1]->size() <=
               static_cast<size_t>(kStoreChunkSize);
  };
  size_t m = chunks_.size();
  if (c > 0 && fits(c - 1)) {
    m = c - 1;
  } else if (fits(c)) {
    m = c;
  }
  if (m == chunks_.size()) return;
  auto merged = std::make_shared<StoreChunk>(*chunks_[m]);
  merged->insert(merged->end(), chunks_[m + 1]->begin(),
                 chunks_[m + 1]->end());
  chunks_[m] = std::move(merged);
  chunks_.erase(chunks_.begin() + static_cast<long>(m + 1));
  starts_.erase(starts_.begin() + static_cast<long>(m + 1));
}

GraphStore::GraphStore() : snap_(std::make_shared<StoreSnapshot>()) {}

GraphStore::GraphStore(GraphStore&& o) noexcept {
  MutexLock lock(o.mu_);
  snap_ = std::move(o.snap_);
  next_id_ = o.next_id_;
  o.snap_ = std::make_shared<StoreSnapshot>();
  o.next_id_ = 0;
}

GraphStore& GraphStore::operator=(GraphStore&& o) noexcept {
  if (this == &o) return *this;
  // Lock both stores in address order — a deterministic total order, so
  // two cross-assignments can never deadlock.
  Mutex* first = this < &o ? &mu_ : &o.mu_;
  Mutex* second = this < &o ? &o.mu_ : &mu_;
  MutexLock lock_first(*first);
  MutexLock lock_second(*second);
  snap_ = std::move(o.snap_);
  next_id_ = o.next_id_;
  o.snap_ = std::make_shared<StoreSnapshot>();
  o.next_id_ = 0;
  return *this;
}

int GraphStore::Insert(Graph g) {
  auto entry = std::make_shared<StoreEntry>();
  entry->invariants = ComputeInvariants(g);
  entry->graph = std::move(g);
  MutexLock lock(mu_);
  const int id = next_id_++;
  entry->id = id;
  auto next = std::make_shared<StoreSnapshot>(*snap_);
  next->epoch_ = snap_->epoch_ + 1;
  next->Append({std::move(entry)});
  snap_ = std::move(next);
  OTGED_COUNT("otged_store_inserts_total", "graphs ingested into the store");
  OTGED_STORE_GAUGES(snap_);
  return id;
}

void GraphStore::AddAll(const std::vector<Graph>& graphs) {
  if (graphs.empty()) return;
  // Invariants are computed outside the lock; one snapshot publication
  // covers the whole batch.
  std::vector<std::shared_ptr<StoreEntry>> pending;
  pending.reserve(graphs.size());
  for (const Graph& g : graphs) {
    auto entry = std::make_shared<StoreEntry>();
    entry->invariants = ComputeInvariants(g);
    entry->graph = g;
    pending.push_back(std::move(entry));
  }
  MutexLock lock(mu_);
  for (auto& entry : pending) entry->id = next_id_++;
  auto next = std::make_shared<StoreSnapshot>(*snap_);
  next->epoch_ = snap_->epoch_ + 1;
  next->Append(std::vector<std::shared_ptr<const StoreEntry>>(
      pending.begin(), pending.end()));
  snap_ = std::move(next);
  OTGED_COUNT_N("otged_store_inserts_total",
                "graphs ingested into the store",
                static_cast<long>(pending.size()));
  OTGED_STORE_GAUGES(snap_);
}

bool GraphStore::Erase(int id) {
  MutexLock lock(mu_);
  const int slot = snap_->SlotOf(id);
  if (slot < 0) return false;
  auto next = std::make_shared<StoreSnapshot>(*snap_);
  next->epoch_ = snap_->epoch_ + 1;
  next->EraseSlot(slot);
  snap_ = std::move(next);
  OTGED_COUNT("otged_store_erases_total", "graphs erased from the store");
  OTGED_STORE_GAUGES(snap_);
  return true;
}

int GraphStore::Size() const {
  MutexLock lock(mu_);
  return snap_->Size();
}

uint64_t GraphStore::Epoch() const {
  MutexLock lock(mu_);
  return snap_->epoch_;
}

int GraphStore::NextId() const {
  MutexLock lock(mu_);
  return next_id_;
}

bool GraphStore::Contains(int id) const {
  MutexLock lock(mu_);
  return snap_->SlotOf(id) >= 0;
}

std::shared_ptr<const StoreSnapshot> GraphStore::Snapshot() const {
  MutexLock lock(mu_);
  OTGED_COUNT("otged_store_snapshot_pins_total",
              "snapshots pinned by readers");
  return snap_;
}

const Graph& GraphStore::graph(int id) const {
  MutexLock lock(mu_);
  const int slot = snap_->SlotOf(id);
  OTGED_CHECK(slot >= 0);
  return snap_->graph(slot);
}

const GraphInvariants& GraphStore::invariants(int id) const {
  MutexLock lock(mu_);
  const int slot = snap_->SlotOf(id);
  OTGED_CHECK(slot >= 0);
  return snap_->invariants(slot);
}

bool GraphStore::Restore(std::vector<std::pair<int, Graph>> entries,
                         int next_id) {
  int max_id = -1;
  for (const auto& [id, g] : entries) {
    if (id <= max_id) return false;  // ids must be strictly increasing
    max_id = id;
  }
  std::vector<std::shared_ptr<const StoreEntry>> fresh;
  fresh.reserve(entries.size());
  for (auto& [id, g] : entries) {
    auto entry = std::make_shared<StoreEntry>();
    entry->id = id;
    entry->invariants = ComputeInvariants(g);
    entry->graph = std::move(g);
    fresh.push_back(std::move(entry));
  }
  auto next = std::make_shared<StoreSnapshot>();
  next->Append(std::move(fresh));
  MutexLock lock(mu_);
  next->epoch_ = snap_->epoch_ + 1;
  next_id_ = std::max({next_id_, next_id, max_id + 1});
  snap_ = std::move(next);
  OTGED_COUNT("otged_store_restores_total",
              "whole-corpus replacements (persistence loads)");
  OTGED_STORE_GAUGES(snap_);
  return true;
}

}  // namespace otged
