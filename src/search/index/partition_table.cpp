#include "search/index/partition_table.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>

namespace otged {

namespace {

uint64_t WlPrefix(uint64_t hash) { return hash >> (64 - kWlPrefixBits); }

/// ceil(L1(query degrees, envelope) / 2): positional gap between the
/// query's ascending degree sequence and the partition's [min, max]
/// envelope, both zero-padded at the front to a common length. Every
/// member's degree sequence lies inside the envelope, so this never
/// exceeds any member's DegreeSequenceEdgeBound — pruning on it is
/// admissible.
int EnvelopeDegreeBound(const std::vector<int>& query_degrees,
                        const std::vector<int>& env_min,
                        const std::vector<int>& env_max) {
  const int nq = static_cast<int>(query_degrees.size());
  const int np = static_cast<int>(env_min.size());
  const int len = std::max(nq, np);
  long l1 = 0;
  for (int j = 0; j < len; ++j) {
    const int qd =
        j >= len - nq ? query_degrees[static_cast<size_t>(j - (len - nq))]
                      : 0;
    const int lo =
        j >= len - np ? env_min[static_cast<size_t>(j - (len - np))] : 0;
    const int hi =
        j >= len - np ? env_max[static_cast<size_t>(j - (len - np))] : 0;
    if (qd < lo)
      l1 += lo - qd;
    else if (qd > hi)
      l1 += qd - hi;
  }
  return static_cast<int>((l1 + 1) / 2);
}

}  // namespace

uint64_t PartitionKey(int num_nodes, int num_edges) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(num_nodes)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(num_edges));
}

namespace {

/// Calls fn(label, count) for each run of an ascending label multiset.
template <typename Fn>
void ForEachLabelRun(const std::vector<Label>& labels, Fn fn) {
  for (size_t i = 0; i < labels.size();) {
    size_t j = i;
    while (j < labels.size() && labels[j] == labels[i]) ++j;
    fn(labels[i], static_cast<int32_t>(j - i));
    i = j;
  }
}

/// Widens the degree envelope to cover one member's degrees.
void WidenEnvelope(const std::vector<int>& degrees, IndexPartition* part) {
  for (size_t j = 0; j < degrees.size(); ++j) {
    part->degree_min[j] = std::min(part->degree_min[j], degrees[j]);
    part->degree_max[j] = std::max(part->degree_max[j], degrees[j]);
  }
}

/// Merges two runs of `v` that are each ascending, [0, mid) and
/// [mid, end); skips the work when the second run already follows the
/// first (a posting list's, when the added ids are the newest).
template <typename T>
void MergeRuns(std::vector<T>* v, size_t mid) {
  if (mid > 0 && mid < v->size() && (*v)[mid] < (*v)[mid - 1])
    std::inplace_merge(v->begin(), v->begin() + static_cast<long>(mid),
                       v->end());
}

/// Ascending-id order of entries.
bool IdLess(const StoreEntry* a, const StoreEntry* b) { return a->id < b->id; }

/// `base` with the members whose ids `removed` names dropped and `adds`
/// (ascending by id) spliced in; nullptr when no member is left. Equal
/// to BuildPartition over the same members: removed and added entries
/// are located by binary search, so the splice reads no other member;
/// surviving posting and prefix entries are renumbered in place of being
/// rebuilt; and the degree envelope is recomputed only at the positions
/// where a removed member lay on it.
std::shared_ptr<const IndexPartition> PatchPartition(
    const IndexPartition& base, const std::vector<const StoreEntry*>& removed,
    const std::vector<const StoreEntry*>& adds) {
  const auto& old = base.members;
  const auto slot_of = [&](const StoreEntry* e) {
    return static_cast<size_t>(
        std::lower_bound(old.begin(), old.end(), e, IdLess) - old.begin());
  };
  const size_t n = static_cast<size_t>(base.num_nodes);
  std::vector<char> gone(old.size(), 0), min_hit(n, 0), max_hit(n, 0);
  for (const StoreEntry* e : removed) {
    const size_t s = slot_of(e);
    if (s == old.size() || old[s]->id != e->id) continue;
    gone[s] = 1;
    const auto& deg = old[s]->invariants.sorted_degrees;
    for (size_t j = 0; j < n; ++j) {
      min_hit[j] |= deg[j] == base.degree_min[j];
      max_hit[j] |= deg[j] == base.degree_max[j];
    }
  }

  // Splice members: remap[old slot] is the new slot, -1 when removed.
  auto part = std::make_shared<IndexPartition>();
  part->num_nodes = base.num_nodes;
  part->num_edges = base.num_edges;
  part->members.reserve(old.size() + adds.size());
  std::vector<int32_t> remap(old.size(), -1);
  // Each add goes right before the first old member with a larger id.
  std::vector<size_t> add_before(adds.size());
  std::transform(adds.begin(), adds.end(), add_before.begin(), slot_of);
  std::vector<int32_t> add_slots;
  add_slots.reserve(adds.size());
  size_t a = 0;
  for (size_t i = 0; i <= old.size(); ++i) {
    for (; a < adds.size() && add_before[a] == i; ++a) {
      add_slots.push_back(static_cast<int32_t>(part->members.size()));
      part->members.push_back(adds[a]);
    }
    if (i == old.size()) break;
    if (gone[i]) continue;
    remap[i] = static_cast<int32_t>(part->members.size());
    part->members.push_back(old[i]);
  }
  if (part->members.empty()) return nullptr;

  // Postings: surviving entries renumbered, added members' runs merged in
  // by label and then by slot.
  std::map<Label, std::vector<std::pair<int32_t, int32_t>>> fresh;
  for (size_t k = 0; k < adds.size(); ++k)
    ForEachLabelRun(adds[k]->invariants.sorted_labels,
                    [&](Label label, int32_t count) {
                      fresh[label].emplace_back(add_slots[k], count);
                    });
  part->postings.reserve(base.postings.size() + fresh.size());
  auto f = fresh.begin();
  for (const IndexPartition::Posting& post : base.postings) {
    for (; f != fresh.end() && f->first < post.label; ++f)
      part->postings.push_back({f->first, std::move(f->second)});
    IndexPartition::Posting out{post.label, {}};
    out.counts.resize(post.counts.size());
    auto* kept = out.counts.data();
    for (const auto& [slot, count] : post.counts) {
      const int32_t to = remap[static_cast<size_t>(slot)];
      *kept = {to, count};
      kept += to >= 0;
    }
    out.counts.resize(static_cast<size_t>(kept - out.counts.data()));
    if (f != fresh.end() && f->first == post.label) {
      const size_t mid = out.counts.size();
      out.counts.insert(out.counts.end(), f->second.begin(),
                        f->second.end());
      MergeRuns(&out.counts, mid);
      ++f;
    }
    if (!out.counts.empty()) part->postings.push_back(std::move(out));
  }
  for (; f != fresh.end(); ++f)
    part->postings.push_back({f->first, std::move(f->second)});

  // Prefix table: renumbering keeps each survivor's rank, so only the
  // added pairs need sorting and merging in.
  part->wl_prefixes.resize(base.wl_prefixes.size());
  auto* kept = part->wl_prefixes.data();
  for (const auto& [prefix, slot] : base.wl_prefixes) {
    const int32_t to = remap[static_cast<size_t>(slot)];
    *kept = {prefix, to};
    kept += to >= 0;
  }
  const auto mid = static_cast<size_t>(kept - part->wl_prefixes.data());
  part->wl_prefixes.resize(mid);
  for (size_t k = 0; k < adds.size(); ++k)
    part->wl_prefixes.emplace_back(WlPrefix(adds[k]->invariants.wl_hash),
                                   add_slots[k]);
  std::sort(part->wl_prefixes.begin() + static_cast<long>(mid),
            part->wl_prefixes.end());
  MergeRuns(&part->wl_prefixes, mid);

  // Envelope: removing a member can only narrow it, and only where the
  // member lay on it; it stays put as soon as a member still holds the
  // old bound.
  part->degree_min = base.degree_min;
  part->degree_max = base.degree_max;
  for (size_t j = 0; j < n; ++j) {
    if (min_hit[j]) {
      int lo = INT_MAX;
      for (const auto& m : part->members) {
        lo = std::min(lo, m->invariants.sorted_degrees[j]);
        if (lo == base.degree_min[j]) break;
      }
      part->degree_min[j] = lo;
    }
    if (max_hit[j]) {
      int hi = INT_MIN;
      for (const auto& m : part->members) {
        hi = std::max(hi, m->invariants.sorted_degrees[j]);
        if (hi == base.degree_max[j]) break;
      }
      part->degree_max[j] = hi;
    }
  }
  for (const StoreEntry* e : adds)
    WidenEnvelope(e->invariants.sorted_degrees, part.get());
  return part;
}

}  // namespace

std::shared_ptr<const IndexPartition> BuildPartition(
    int num_nodes, int num_edges, std::vector<const StoreEntry*> members) {
  auto part = std::make_shared<IndexPartition>();
  part->num_nodes = num_nodes;
  part->num_edges = num_edges;
  part->members = std::move(members);

  std::map<Label, std::vector<std::pair<int32_t, int32_t>>> postings;
  if (part->members.empty()) {
    part->degree_min.assign(static_cast<size_t>(num_nodes), 0);
    part->degree_max.assign(static_cast<size_t>(num_nodes), 0);
  } else {
    part->degree_min = part->members.front()->invariants.sorted_degrees;
    part->degree_max = part->degree_min;
  }
  part->wl_prefixes.reserve(part->members.size());
  for (size_t slot = 0; slot < part->members.size(); ++slot) {
    const GraphInvariants& inv = part->members[slot]->invariants;
    ForEachLabelRun(inv.sorted_labels, [&](Label label, int32_t count) {
      postings[label].emplace_back(static_cast<int32_t>(slot), count);
    });
    WidenEnvelope(inv.sorted_degrees, part.get());
    part->wl_prefixes.emplace_back(WlPrefix(inv.wl_hash),
                                   static_cast<int32_t>(slot));
  }
  part->postings.reserve(postings.size());
  for (auto& [label, counts] : postings)
    part->postings.push_back({label, std::move(counts)});
  std::sort(part->wl_prefixes.begin(), part->wl_prefixes.end());
  return part;
}

PartitionMap BuildPartitionMap(
    const std::vector<std::shared_ptr<const StoreChunk>>& chunks) {
  std::map<uint64_t, std::vector<const StoreEntry*>> groups;
  for (const auto& chunk : chunks)
    for (const auto& e : *chunk)
      groups[PartitionKey(e->invariants.num_nodes, e->invariants.num_edges)]
          .push_back(e.get());
  PartitionMap out;
  for (auto& [key, members] : groups)
    out.emplace(key,
                BuildPartition(static_cast<int>(key >> 32),
                               static_cast<int>(key & 0xffffffffu),
                               std::move(members)));
  return out;
}

PartitionMap ApplyPartitionDiff(const PartitionMap& base,
                                const std::vector<const StoreEntry*>& added,
                                const std::vector<const StoreEntry*>& removed) {
  struct Delta {
    std::vector<const StoreEntry*> adds, removed;
  };
  std::map<uint64_t, Delta> touched;
  const auto key_of = [](const StoreEntry* e) {
    return PartitionKey(e->invariants.num_nodes, e->invariants.num_edges);
  };
  for (const StoreEntry* e : added) touched[key_of(e)].adds.push_back(e);
  for (const StoreEntry* e : removed) touched[key_of(e)].removed.push_back(e);

  PartitionMap out = base;  // shares untouched partitions
  for (auto& [key, delta] : touched) {
    std::sort(delta.adds.begin(), delta.adds.end(), IdLess);
    auto it = out.find(key);
    if (it == out.end()) {
      if (!delta.adds.empty())
        out.emplace(key, BuildPartition(static_cast<int>(key >> 32),
                                        static_cast<int>(key & 0xffffffffu),
                                        std::move(delta.adds)));
      continue;
    }
    auto patched = PatchPartition(*it->second, delta.removed, delta.adds);
    if (patched == nullptr) {
      out.erase(it);
    } else {
      it->second = std::move(patched);
    }
  }
  return out;
}

void ScreenPartitions(const PartitionMap& parts, const GraphInvariants& qi,
                      int tau,
                      std::vector<const IndexPartition*>* opened,
                      IndexStats* stats) {
  for (const auto& [key, part] : parts) {
    stats->partitions_seen++;
    const long size = static_cast<long>(part->members.size());
    stats->scanned += size;
    const int dn = std::abs(qi.num_nodes - part->num_nodes);
    const int dm = std::abs(qi.num_edges - part->num_edges);
    // Each node edit moves num_nodes by one, each edge edit num_edges by
    // one, so GED >= max(dn, dm) for every member.
    if (std::max(dn, dm) > tau) {
      stats->partition_pruned += size;
      continue;
    }
    if (EnvelopeDegreeBound(qi.sorted_degrees, part->degree_min,
                            part->degree_max) > tau) {
      stats->partition_pruned += size;
      continue;
    }
    stats->partitions_opened++;
    opened->push_back(part.get());
  }
}

void PartitionLabelCandidates(
    const IndexPartition& part, const GraphInvariants& qi,
    const std::vector<std::pair<Label, int>>& query_rle, int tau,
    std::vector<int>* out_ids, IndexStats* stats) {
  const long size = static_cast<long>(part.members.size());
  long emitted = 0;
  if (tau == 0) {
    // The screen already enforced equal (n, m); WL-hash equality is
    // additionally necessary for GED == 0, so only the query's prefix
    // bucket is opened and confirmed against the full hash.
    const std::pair<uint64_t, int32_t> probe(WlPrefix(qi.wl_hash), -1);
    for (auto it = std::lower_bound(part.wl_prefixes.begin(),
                                    part.wl_prefixes.end(), probe);
         it != part.wl_prefixes.end() && it->first == probe.first; ++it) {
      const auto& member = part.members[static_cast<size_t>(it->second)];
      if (member->invariants.wl_hash == qi.wl_hash) {
        out_ids->push_back(member->id);
        ++emitted;
      }
    }
    // Prefix buckets are unordered by id within the bucket only when
    // hashes tie; restore ascending-id output.
    std::sort(out_ids->end() - emitted, out_ids->end());
  } else {
    const int dm = std::abs(qi.num_edges - part.num_edges);
    const int base = std::max(qi.num_nodes, part.num_nodes) + dm;
    if (base <= tau) {
      // No amount of label mismatch can push the bound past tau.
      for (const auto& member : part.members) out_ids->push_back(member->id);
      emitted = size;
    } else {
      const int need = base - tau;  // >= 1: untouched members cannot pass
      std::vector<int32_t> common(static_cast<size_t>(size), 0);
      std::vector<int32_t> hit;
      auto post = part.postings.begin();
      for (const auto& [label, qcount] : query_rle) {
        while (post != part.postings.end() && post->label < label) ++post;
        if (post == part.postings.end()) break;
        if (post->label != label) continue;
        for (const auto& [slot, count] : post->counts) {
          if (common[static_cast<size_t>(slot)] == 0) hit.push_back(slot);
          common[static_cast<size_t>(slot)] += std::min(count, qcount);
        }
      }
      std::sort(hit.begin(), hit.end());
      for (const int32_t slot : hit) {
        if (common[static_cast<size_t>(slot)] >= need) {
          out_ids->push_back(part.members[static_cast<size_t>(slot)]->id);
          ++emitted;
        }
      }
    }
  }
  stats->candidates += emitted;
  stats->label_pruned += size - emitted;
}

}  // namespace otged
