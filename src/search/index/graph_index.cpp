#include "search/index/graph_index.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <string>
#include <utility>

#include "telemetry/metrics.hpp"

namespace otged {

namespace {

#if OTGED_TELEMETRY_COMPILED
/// Index metric handles, resolved once (labeled names cannot go through
/// the one-name-per-call-site OTGED_COUNT macros).
struct IndexMetrics {
  telemetry::Counter* queries;
  telemetry::Counter* candidates;
  telemetry::Counter* pruned[2];  ///< level = partition, label
  telemetry::Counter* partitions_opened;
  telemetry::Counter* applies;
  telemetry::Gauge* size;
  telemetry::Gauge* partitions;
  telemetry::Histogram* level_latency[2];
  telemetry::Histogram* view_latency[2];  ///< kind = advance, build
};

const IndexMetrics& Metrics() {
  static const IndexMetrics* m = [] {
    auto* mm = new IndexMetrics;
    auto& reg = telemetry::Registry();
    static const char* kLevel[2] = {"partition", "label"};
    mm->queries = &reg.GetCounter(
        "otged_index_queries_total{kind=\"range\"}",
        "queries answered through the candidate-generation index");
    mm->candidates =
        &reg.GetCounter("otged_index_candidates_total",
                        "graphs the index handed to the filter cascade");
    for (int l : {0, 1})
      mm->pruned[l] = &reg.GetCounter(
          std::string("otged_index_pruned_total{level=\"") + kLevel[l] +
              "\"}",
          "graphs dismissed by this index level's admissible bound");
    mm->partitions_opened =
        &reg.GetCounter("otged_index_partitions_opened_total",
                        "partitions that survived the signature screen");
    mm->applies = &reg.GetCounter(
        "otged_index_applies_total",
        "incremental snapshot diffs applied to the cached view");
    mm->size =
        &reg.GetGauge("otged_index_size", "graphs in the current view");
    mm->partitions = &reg.GetGauge("otged_index_partitions",
                                   "partitions in the current view");
    for (int l : {0, 1})
      mm->level_latency[l] = &reg.GetHistogram(
          std::string("otged_index_level_latency_us{level=\"") + kLevel[l] +
              "\"}",
          "wall time spent in this index level per query");
    static const char* kKind[2] = {"advance", "build"};
    for (int k : {0, 1})
      mm->view_latency[k] = &reg.GetHistogram(
          std::string("otged_index_view_latency_us{kind=\"") + kKind[k] +
              "\"}",
          "wall time of a ViewFor that advanced or built the cached view");
    return mm;
  }();
  return *m;
}
#endif  // OTGED_TELEMETRY_COMPILED

/// Run-length encodes an ascending label multiset.
std::vector<std::pair<Label, int>> RleLabels(
    const std::vector<Label>& sorted_labels) {
  std::vector<std::pair<Label, int>> rle;
  for (size_t i = 0; i < sorted_labels.size();) {
    size_t j = i;
    while (j < sorted_labels.size() && sorted_labels[j] == sorted_labels[i])
      ++j;
    rle.emplace_back(sorted_labels[i], static_cast<int>(j - i));
    i = j;
  }
  return rle;
}

}  // namespace

void IndexView::RangeCandidates(const GraphInvariants& qi, int tau,
                                std::vector<int>* out_ids,
                                IndexStats* stats) const {
  // This read's counts, mirrored into the global counters and then
  // merged into `*stats`, which may already hold earlier reads.
  IndexStats read;
  const size_t first = out_ids->size();
  const double t0 = telemetry::NowUs();
  std::vector<const IndexPartition*> opened;
  ScreenPartitions(partitions_, qi, tau, &opened, &read);
  const double t1 = telemetry::NowUs();
  const auto query_rle = RleLabels(qi.sorted_labels);
  for (const IndexPartition* part : opened)
    PartitionLabelCandidates(*part, qi, query_rle, tau, out_ids, &read);
  // Partitions iterate by (n, m); interleave back to ascending id.
  std::sort(out_ids->begin() + static_cast<long>(first), out_ids->end());
  const double t2 = telemetry::NowUs();
  read.partition_us = t1 - t0;
  read.label_us = t2 - t1;
  stats->Merge(read);
#if OTGED_TELEMETRY_COMPILED
  if (telemetry::Enabled()) {
    const auto& m = Metrics();
    m.queries->Inc();
    m.candidates->Inc(read.candidates);
    m.pruned[0]->Inc(read.partition_pruned);
    m.pruned[1]->Inc(read.label_pruned);
    m.partitions_opened->Inc(read.partitions_opened);
    m.level_latency[0]->Record(std::lround(t1 - t0));
    m.level_latency[1]->Record(std::lround(t2 - t1));
  }
#endif
}

std::shared_ptr<const IndexView> GraphIndex::ViewFor(
    const std::shared_ptr<const StoreSnapshot>& snap) {
  MutexLock lock(mu_);
  if (view_ != nullptr && view_->epoch() == snap->epoch()) return view_;
  const double t0 = telemetry::NowUs();
  std::shared_ptr<const IndexView> view =
      view_ == nullptr ? nullptr : Advance(snap);
  const bool advanced = view != nullptr;
  if (!advanced) view = BuildFull(snap);
  view_ = std::move(view);
#if OTGED_TELEMETRY_COMPILED
  if (telemetry::Enabled()) {
    const auto& m = Metrics();
    m.view_latency[advanced ? 0 : 1]->Record(
        std::lround(telemetry::NowUs() - t0));
    m.size->Set(view_->Size());
    m.partitions->Set(static_cast<long>(view_->partitions_.size()));
  }
#else
  (void)t0;
#endif
  return view_;
}

std::shared_ptr<const IndexView> GraphIndex::BuildFull(
    const std::shared_ptr<const StoreSnapshot>& snap) {
  auto view = std::shared_ptr<IndexView>(new IndexView);
  view->snap_ = snap;
  view->partitions_ = BuildPartitionMap(snap->chunks());
  return view;
}

std::shared_ptr<const IndexView> GraphIndex::Advance(
    const std::shared_ptr<const StoreSnapshot>& snap) {
  // Both chunk vectors ascend by id and their chunks are never empty, so
  // a chunk the two share sits at the same first id in both: walking
  // them by first id pairs every shared chunk, and whatever else is
  // walked holds every entry the two snapshots differ in.
  const auto& olds = view_->snap_->chunks();
  const auto& news = snap->chunks();
  std::vector<const StoreEntry*> old_only, new_only;
  const auto append = [](const StoreChunk& chunk,
                         std::vector<const StoreEntry*>* out) {
    for (const auto& e : chunk) out->push_back(e.get());
  };
  bool shared = false;
  size_t i = 0, j = 0;
  while (i < olds.size() || j < news.size()) {
    if (i < olds.size() && j < news.size() && olds[i] == news[j]) {
      shared = true;
      ++i;
      ++j;
      continue;
    }
    const int oi = i < olds.size() ? olds[i]->front()->id : INT_MAX;
    const int nj = j < news.size() ? news[j]->front()->id : INT_MAX;
    if (oi <= nj) append(*olds[i++], &old_only);
    if (nj <= oi) append(*news[j++], &new_only);
  }
  if (!shared) return nullptr;  // e.g. a Restore: rebuild instead

  // The unshared entries ascend by id on both sides. Mostly they are the
  // same entries (a write copies a whole chunk), which compare equal
  // without being dereferenced; an id bound to a different entry on each
  // side counts as remove + add.
  std::vector<const StoreEntry*> added, removed;
  i = 0;
  j = 0;
  while (i < old_only.size() || j < new_only.size()) {
    if (i < old_only.size() && j < new_only.size() &&
        old_only[i] == new_only[j]) {
      ++i;
      ++j;
    } else if (j == new_only.size() ||
               (i < old_only.size() && old_only[i]->id < new_only[j]->id)) {
      removed.push_back(old_only[i++]);
    } else if (i == old_only.size() || new_only[j]->id < old_only[i]->id) {
      added.push_back(new_only[j++]);
    } else {
      removed.push_back(old_only[i++]);
      added.push_back(new_only[j++]);
    }
  }
  auto view = std::shared_ptr<IndexView>(new IndexView);
  view->snap_ = snap;
  view->partitions_ = ApplyPartitionDiff(view_->partitions_, added, removed);
#if OTGED_TELEMETRY_COMPILED
  if (telemetry::Enabled()) Metrics().applies->Inc();
#endif
  return view;
}

}  // namespace otged
