#include "search/index/partition_table.hpp"

#include <algorithm>
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

std::shared_ptr<const IndexPartition> BuildPartition(
    int num_nodes, int num_edges,
    std::vector<std::shared_ptr<const StoreEntry>> members) {
  auto part = std::make_shared<IndexPartition>();
  part->num_nodes = num_nodes;
  part->num_edges = num_edges;
  part->members = std::move(members);

  std::map<Label, std::vector<std::pair<int32_t, int32_t>>> postings;
  part->degree_min.assign(static_cast<size_t>(num_nodes), 0);
  part->degree_max.assign(static_cast<size_t>(num_nodes), 0);
  part->wl_prefixes.reserve(part->members.size());
  for (size_t slot = 0; slot < part->members.size(); ++slot) {
    const GraphInvariants& inv = part->members[slot]->invariants;
    // Run-length encode the sorted label multiset into posting entries.
    const auto& labels = inv.sorted_labels;
    for (size_t i = 0; i < labels.size();) {
      size_t j = i;
      while (j < labels.size() && labels[j] == labels[i]) ++j;
      postings[labels[i]].emplace_back(static_cast<int32_t>(slot),
                                       static_cast<int32_t>(j - i));
      i = j;
    }
    for (size_t j = 0; j < inv.sorted_degrees.size(); ++j) {
      const int d = inv.sorted_degrees[j];
      if (slot == 0) {
        part->degree_min[j] = d;
        part->degree_max[j] = d;
      } else {
        part->degree_min[j] = std::min(part->degree_min[j], d);
        part->degree_max[j] = std::max(part->degree_max[j], d);
      }
    }
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
    const std::vector<std::shared_ptr<const StoreEntry>>& entries) {
  std::map<uint64_t, std::vector<std::shared_ptr<const StoreEntry>>> groups;
  for (const auto& e : entries)
    groups[PartitionKey(e->invariants.num_nodes, e->invariants.num_edges)]
        .push_back(e);
  PartitionMap out;
  for (auto& [key, members] : groups)
    out.emplace(key,
                BuildPartition(static_cast<int>(key >> 32),
                               static_cast<int>(key & 0xffffffffu),
                               std::move(members)));
  return out;
}

PartitionMap ApplyPartitionDiff(
    const PartitionMap& base,
    const std::vector<std::shared_ptr<const StoreEntry>>& added,
    const std::vector<std::shared_ptr<const StoreEntry>>& removed) {
  struct Delta {
    std::vector<std::shared_ptr<const StoreEntry>> adds;
    std::vector<int> removed_ids;
  };
  std::map<uint64_t, Delta> touched;
  for (const auto& e : added)
    touched[PartitionKey(e->invariants.num_nodes, e->invariants.num_edges)]
        .adds.push_back(e);
  for (const auto& e : removed)
    touched[PartitionKey(e->invariants.num_nodes, e->invariants.num_edges)]
        .removed_ids.push_back(e->id);

  PartitionMap out = base;  // shares untouched partitions
  for (auto& [key, delta] : touched) {
    std::vector<std::shared_ptr<const StoreEntry>> members;
    auto it = out.find(key);
    if (it != out.end()) members = it->second->members;
    std::sort(delta.removed_ids.begin(), delta.removed_ids.end());
    members.erase(
        std::remove_if(members.begin(), members.end(),
                       [&](const auto& e) {
                         return std::binary_search(delta.removed_ids.begin(),
                                                   delta.removed_ids.end(),
                                                   e->id);
                       }),
        members.end());
    std::sort(delta.adds.begin(), delta.adds.end(),
              [](const auto& a, const auto& b) { return a->id < b->id; });
    std::vector<std::shared_ptr<const StoreEntry>> merged;
    merged.reserve(members.size() + delta.adds.size());
    std::merge(members.begin(), members.end(), delta.adds.begin(),
               delta.adds.end(), std::back_inserter(merged),
               [](const auto& a, const auto& b) { return a->id < b->id; });
    if (merged.empty()) {
      if (it != out.end()) out.erase(it);
    } else {
      out[key] = BuildPartition(static_cast<int>(key >> 32),
                                static_cast<int>(key & 0xffffffffu),
                                std::move(merged));
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
