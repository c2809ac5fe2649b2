#include "search/thread_pool.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "telemetry/metrics.hpp"

namespace otged {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  threads_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i)
    threads_.emplace_back([this, i] { WorkerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ParallelFor(int64_t n, int grain,
                             const std::function<void(int64_t, int)>& body) {
  if (n <= 0) return;
  OTGED_CHECK(grain >= 1);
  OTGED_COUNT("otged_pool_parallel_fors_total",
              "parallel loops dispatched to the pool");
  if (num_threads_ == 1 || n <= grain) {
    for (int64_t i = 0; i < n; ++i) body(i, 0);
    OTGED_COUNT_N("otged_pool_tasks_total",
                  "loop indices executed by the pool", n);
    return;
  }
  const Loop loop{&body, n, grain};
  {
    MutexLock lock(mu_);
    OTGED_CHECK_MSG(loop_.body == nullptr, "ParallelFor is not reentrant");
    loop_ = loop;
    next_.store(0, std::memory_order_relaxed);
    ++epoch_;
  }
  work_cv_.NotifyAll();

  RunChunks(loop, /*worker=*/0);

  // The cursor is past n, so every chunk has been claimed: wait only for
  // the workers still running one. The next loop may reset the cursor
  // once none is left that could advance it.
  MutexLock lock(mu_);
  while (active_ != 0) done_cv_.Wait(mu_);
  loop_.body = nullptr;
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_epoch = 0;
  while (true) {
    Loop loop;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.Wait(mu_);
      if (shutdown_) return;
      seen_epoch = epoch_;
      if (loop_.body == nullptr) continue;  // woke after the loop ended
      loop = loop_;
      ++active_;
    }
    RunChunks(loop, worker);
    MutexLock lock(mu_);
    if (--active_ == 0) done_cv_.NotifyOne();
  }
}

void ThreadPool::RunChunks(const Loop& loop, int worker) {
  while (true) {
    const int64_t lo = next_.fetch_add(loop.grain, std::memory_order_relaxed);
    if (lo >= loop.n) return;
    const int64_t hi = std::min(loop.n, lo + loop.grain);
    for (int64_t i = lo; i < hi; ++i) (*loop.body)(i, worker);
    OTGED_COUNT_N("otged_pool_tasks_total",
                  "loop indices executed by the pool", hi - lo);
  }
}

}  // namespace otged
