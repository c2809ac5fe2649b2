// Workload definitions of the GED serving benchmark: corpus recipes and
// the seeded operation streams the closed-loop client replays.
#ifndef GEDBENCH_WORKLOADS_HPP_
#define GEDBENCH_WORKLOADS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/random.hpp"
#include "graph/graph.hpp"
#include "search/query_engine.hpp"

namespace gedbench {

enum class Workload { kHardRange2k, kMixedAids100k, kChurnAids100k };

/// Parses a workload name; returns false for an unknown one.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Independent deterministic sub-stream seed for (seed, stream).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// The graphs a workload's store starts from, in insertion order. The
/// corpus is fixed; the seed only drives the operation stream.
std::vector<otged::Graph> MakeCorpus(Workload w);

/// Engine configuration of a workload (pool size = hardware threads).
otged::EngineOptions MakeEngineOptions(Workload w);

struct Op {
  enum Kind { kRange, kInsert, kErase };
  Kind kind = kRange;
  otged::Graph graph;  ///< query (reads) or the inserted graph
  int param = 0;       ///< tau of a range read
  int erase_id = -1;   ///< target of an erase
  /// Stored graph the query was perturbed from, with the number of edits
  /// applied (an upper bound on their GED); -1 when the query is not a
  /// perturbation of a stored graph.
  int source_id = -1;
  int source_edits = 0;
  bool repeat = false;  ///< verbatim repeat of an earlier read
};

/// Deterministic operation stream: the same seed and the same sequence
/// of store states give the same operations. Erase targets are drawn
/// from the snapshot passed in.
class OpStream {
 public:
  OpStream(Workload w, uint64_t seed);

  /// The next operation of the workload's own stream.
  Op Next(const otged::StoreSnapshot& snap);

  /// Writes for workloads whose stream has none, so every workload
  /// measures write latency (see README.md, "Write probe"): inserts of a
  /// fresh corpus-like graph or erases of a random live id.
  Op NextWriteProbe(const otged::StoreSnapshot& snap, bool insert);

  /// An untimed warm-up read of the workload's recipe, from a stream of
  /// its own (the timed stream and the probes never see its draws).
  Op NextWarmupRead();

  bool StreamHasWrites() const {
    return workload_ == Workload::kChurnAids100k;
  }

  /// Length of the stream's cost cycle in reads, or 0 if it has none.
  /// On hard-range-2k, stream reads [1, 1 + k * CycleReads()) serve each
  /// pool entry exactly 2k times (k times as a distinct read, k times as
  /// its repeat), whatever the seed's order.
  long CycleReads() const {
    return static_cast<long>(2 * hard_pool_.size());
  }

  long reads() const { return reads_; }
  long repeats() const { return repeats_; }

 private:
  Op HardRead();
  Op AidsRangeRead();
  otged::Graph FreshMolecule();
  otged::Graph PerturbMolecule(const otged::Graph& g, int edits);

  Workload workload_;
  otged::Rng rng_;
  otged::Rng probe_rng_;
  otged::Rng warmup_rng_;
  std::vector<otged::Graph> seeds_;  ///< AIDS query seeds (not stored)
  std::vector<Op> history_;          ///< hard: distinct reads served
  int churn_phase_ = 0;  ///< position in insert, insert, erase, erase, read
  bool last_was_repeat_ = false;
  std::vector<Op> hard_pool_;  ///< hard: distinct reads, in serving order
  long reads_ = 0;
  long repeats_ = 0;
};

}  // namespace gedbench

#endif  // GEDBENCH_WORKLOADS_HPP_
