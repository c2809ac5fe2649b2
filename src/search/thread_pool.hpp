/// \file thread_pool.hpp
/// \brief Thread pool for data-parallel loops over query candidates.
/// ParallelFor hands out grain-sized chunks of [0, n) from one shared
/// atomic cursor: every participant claims its next chunk with a single
/// fetch_add until the cursor passes n. The engine's loops are flat and
/// never nested, so one cursor balances them as well as per-worker
/// queues would, with nothing to steal and no idle worker spinning.
///
/// The pool only schedules; it never reorders results. Callers write into
/// pre-sized per-index slots, so parallel loops are deterministic for any
/// thread count.
#ifndef OTGED_SEARCH_THREAD_POOL_HPP_
#define OTGED_SEARCH_THREAD_POOL_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace otged {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the caller participates as worker 0
  /// during ParallelFor, so `num_threads == 1` runs fully inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(i, worker) for every i in [0, n), in chunks of `grain`
  /// consecutive indices; blocks until all n indices are done. `worker`
  /// is in [0, num_threads()) and lets callers keep contention-free
  /// per-worker accumulators. `n <= grain` runs inline. Not reentrant.
  void ParallelFor(int64_t n, int grain,
                   const std::function<void(int64_t, int)>& body)
      EXCLUDES(mu_);

 private:
  struct Loop {
    const std::function<void(int64_t, int)>* body = nullptr;
    int64_t n = 0;
    int grain = 1;
  };

  void WorkerLoop(int worker) EXCLUDES(mu_);
  /// Claims and runs chunks of `loop` until the cursor passes its end.
  void RunChunks(const Loop& loop, int worker);

  const int num_threads_;
  std::vector<std::thread> threads_;
  /// First unclaimed index of the current loop. Reset under mu_ before a
  /// loop is published; only workers counted in active_ advance it.
  std::atomic<int64_t> next_{0};

  Mutex mu_;
  CondVar work_cv_;  ///< workers wait for a new loop
  CondVar done_cv_;  ///< caller waits for active_ to reach 0
  /// The loop in flight; `body == nullptr` between loops, so a worker
  /// that wakes after its loop has ended does not join it.
  Loop loop_ GUARDED_BY(mu_);
  int active_ GUARDED_BY(mu_) = 0;      ///< workers inside RunChunks
  uint64_t epoch_ GUARDED_BY(mu_) = 0;  ///< bumped per ParallelFor
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace otged

#endif  // OTGED_SEARCH_THREAD_POOL_HPP_
