#include "workloads.hpp"

#include <thread>
#include <utility>

#include "graph/generator.hpp"

namespace gedbench {

using otged::Graph;
using otged::Rng;
using otged::StoreSnapshot;
using otged::SyntheticEditOptions;

namespace {

constexpr int kAidsCorpus = 100'000;
constexpr int kAidsSeeds = 100;
constexpr int kAidsVariantsPerSeed = 12;
constexpr int kAidsLabels = 29;
constexpr int kHardRandom = 1'960;
constexpr int kHardSeeds = 8;
constexpr int kHardVariantsPerSeed = 5;

// The corpora are fixed (the seed the SLO and scale benches used), so
// --seed varies the operation stream over one database; runs with
// different seeds differ only in what the client asks.
constexpr uint64_t kCorpusSeed = 20250807;

// Sub-stream ids; fixed so corpus and queries never share draws.
constexpr uint64_t kSeedStream = 1;
constexpr uint64_t kCorpusStream = 2;
constexpr uint64_t kOpStream = 3;
constexpr uint64_t kProbeStream = 4;
constexpr uint64_t kPoolStream = 5;
constexpr uint64_t kWarmupStream = 6;

constexpr int kHardPool = 20;

Graph HardGraph(Rng* rng) {
  return otged::PowerLawGraph(rng->UniformInt(10, 32), rng->UniformInt(1, 3),
                              rng);
}

Graph HardQueryGraph(Rng* rng) {
  return otged::PowerLawGraph(rng->UniformInt(12, 28), 2, rng);
}

std::vector<Graph> AidsSeeds() {
  Rng rng(StreamSeed(kCorpusSeed, kSeedStream));
  std::vector<Graph> seeds;
  for (int s = 0; s < kAidsSeeds; ++s)
    seeds.push_back(otged::AidsLikeGraph(&rng, 6, 14));
  return seeds;
}

}  // namespace

// The hard workload's distinct reads: a fixed pool over the fixed corpus,
// half fresh SLO-recipe query graphs (12..28 nodes), half 1-4-edit
// perturbations of the stored variants, whose ids are their corpus
// positions. Perturbations of the random tree-like graphs are left out
// (see README.md, "Known defects"). A read costs 2 ms to 1.5 s, so the
// pool is small enough for every run to serve all of it at least once:
// each run then sees nearly the same cost mix. --seed shuffles the order
// in which the pool is served.
std::vector<Op> HardReadPool() {
  const std::vector<Graph> corpus = MakeCorpus(Workload::kHardRange2k);
  const int first_variant = kHardRandom;
  Rng rng(StreamSeed(kCorpusSeed, kPoolStream));
  std::vector<Op> pool;
  for (int i = 0; i < kHardPool; ++i) {
    Op op;
    op.kind = Op::kRange;
    op.param = 4;
    const int k = i / 2;  // 0 .. kHardPool / 2 - 1
    if (i % 2 == 0) {
      // Node counts spread over the SLO query range 12..28.
      op.graph =
          otged::PowerLawGraph(12 + k * 17 / (kHardPool / 2), 2, &rng);
    } else {
      // Variants spread over all centers: variant v perturbs center v / 5.
      op.source_id = first_variant + (k * 4) % (kHardSeeds *
                                                kHardVariantsPerSeed);
      op.source_edits = 1 + k % 4;
      SyntheticEditOptions sopt;
      sopt.num_edits = op.source_edits;
      sopt.allow_relabel = false;
      op.graph = otged::SyntheticEditPair(
                     corpus[static_cast<size_t>(op.source_id)], sopt, &rng)
                     .g2;
    }
    pool.push_back(std::move(op));
  }
  return pool;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kHardRange2k, Workload::kMixedAids100k,
                     Workload::kChurnAids100k}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHardRange2k: return "hard-range-2k";
    case Workload::kMixedAids100k: return "mixed-aids-100k";
    case Workload::kChurnAids100k: return "churn-aids-100k";
  }
  return "?";
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Graph> MakeCorpus(Workload w) {
  std::vector<Graph> corpus;
  Rng rng(StreamSeed(kCorpusSeed, kCorpusStream));
  if (w == Workload::kHardRange2k) {
    // The SLO corpus recipe: random power-law graphs plus perturbed
    // variants of a few query-like graphs, so some reads have true
    // neighbors.
    std::vector<Graph> centers;
    for (int q = 0; q < kHardSeeds; ++q)
      centers.push_back(HardQueryGraph(&rng));
    for (int i = 0; i < kHardRandom; ++i) corpus.push_back(HardGraph(&rng));
    for (const Graph& c : centers) {
      for (int v = 0; v < kHardVariantsPerSeed; ++v) {
        SyntheticEditOptions sopt;
        sopt.num_edits = 1 + v;
        sopt.allow_relabel = false;
        corpus.push_back(otged::SyntheticEditPair(c, sopt, &rng).g2);
      }
    }
    return corpus;
  }
  // The bench_search_scale recipe: AIDS-like molecules plus 1-3-edit
  // variants of every query seed.
  corpus.reserve(kAidsCorpus + kAidsSeeds * kAidsVariantsPerSeed);
  for (int i = 0; i < kAidsCorpus; ++i)
    corpus.push_back(otged::AidsLikeGraph(&rng, 6, 14));
  for (const Graph& s : AidsSeeds()) {
    for (int v = 0; v < kAidsVariantsPerSeed; ++v) {
      SyntheticEditOptions sopt;
      sopt.num_edits = 1 + v % 3;
      sopt.num_labels = kAidsLabels;
      corpus.push_back(otged::SyntheticEditPair(s, sopt, &rng).g2);
    }
  }
  return corpus;
}

otged::EngineOptions MakeEngineOptions(Workload w) {
  otged::EngineOptions opt;
  opt.num_threads = static_cast<int>(std::thread::hardware_concurrency());
  if (w == Workload::kHardRange2k) {
    opt.cascade.exact_budget = 200'000;
  } else {
    // bench_search_scale's serving settings for the molecule corpus.
    opt.cascade.exact_budget = 50'000;
  }
  return opt;
}

OpStream::OpStream(Workload w, uint64_t seed)
    : workload_(w),
      rng_(StreamSeed(seed, kOpStream)),
      probe_rng_(StreamSeed(seed, kProbeStream)),
      warmup_rng_(StreamSeed(seed, kWarmupStream)) {
  if (w != Workload::kHardRange2k) {
    seeds_ = AidsSeeds();
  } else {
    hard_pool_ = HardReadPool();
    rng_.Shuffle(&hard_pool_);
  }
}

Graph OpStream::FreshMolecule() {
  return otged::AidsLikeGraph(&rng_, 6, 14);
}

Graph OpStream::PerturbMolecule(const Graph& g, int edits) {
  SyntheticEditOptions sopt;
  sopt.num_edits = edits;
  sopt.num_labels = kAidsLabels;
  return otged::SyntheticEditPair(g, sopt, &rng_).g2;
}

Op OpStream::HardRead() {
  // Distinct reads come from the fixed pool in seed-shuffled order; after
  // the first, every distinct read is followed by a verbatim repeat of
  // the one before it, so half of all reads are repeats. A run that
  // exhausts the pool starts over, and those reads count as repeats too.
  if (history_.size() >= 2 && !last_was_repeat_) {
    last_was_repeat_ = true;
    Op op = history_[history_.size() - 2];
    op.repeat = true;
    return op;
  }
  last_was_repeat_ = false;
  Op op = hard_pool_[history_.size() % hard_pool_.size()];
  op.repeat = history_.size() >= hard_pool_.size();
  history_.push_back(op);
  return op;
}

Op OpStream::AidsRangeRead() {
  Op op;
  op.kind = Op::kRange;
  op.param = 2;
  if (rng_.Bernoulli(0.5)) {
    op.graph = FreshMolecule();
  } else {
    const Graph& s = seeds_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int>(seeds_.size()) - 1))];
    op.graph = PerturbMolecule(s, rng_.UniformInt(1, 3));
  }
  return op;
}

Op OpStream::Next(const StoreSnapshot& snap) {
  Op op;
  switch (workload_) {
    case Workload::kHardRange2k:
      op = HardRead();
      break;
    case Workload::kMixedAids100k:
      op = AidsRangeRead();
      break;
    case Workload::kChurnAids100k: {
      const int phase = churn_phase_;
      churn_phase_ = (churn_phase_ + 1) % 5;
      if (phase < 2) {
        op.kind = Op::kInsert;
        op.graph = FreshMolecule();
      } else if (phase < 4) {
        op.kind = Op::kErase;
        op.erase_id = snap.id(rng_.UniformInt(0, snap.Size() - 1));
      } else {
        op = AidsRangeRead();
      }
      break;
    }
  }
  if (op.kind == Op::kRange) {
    ++reads_;
    if (op.repeat) ++repeats_;
  }
  return op;
}

Op OpStream::NextWarmupRead() {
  Op op;
  op.kind = Op::kRange;
  if (workload_ == Workload::kHardRange2k) {
    op.param = 4;
    op.graph = HardQueryGraph(&warmup_rng_);
  } else {
    op.param = 2;
    op.graph = otged::AidsLikeGraph(&warmup_rng_, 6, 14);
  }
  return op;
}

Op OpStream::NextWriteProbe(const StoreSnapshot& snap, bool insert) {
  Op op;
  if (insert) {
    op.kind = Op::kInsert;
    op.graph = workload_ == Workload::kHardRange2k
                   ? HardGraph(&probe_rng_)
                   : otged::AidsLikeGraph(&probe_rng_, 6, 14);
  } else {
    op.kind = Op::kErase;
    op.erase_id = snap.id(probe_rng_.UniformInt(0, snap.Size() - 1));
  }
  return op;
}

}  // namespace gedbench
