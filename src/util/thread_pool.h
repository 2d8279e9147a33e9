// Fixed-size worker pool plus the parallel-loop primitives the numeric hot
// path is built on (parallel SpMM / GEMM / row-softmax and parallel proxy
// evaluation). On a single-core host everything degrades gracefully to one
// worker.
//
// Threading model (see README "Threading model"):
//  - A process-global thread count, set via SetNumThreads() and defaulted
//    from std::thread::hardware_concurrency(), controls every kernel-level
//    ParallelForChunked() loop.
//  - A parallel call uses the calling thread as one of its workers: it
//    starts `threads - 1` new threads and drains indices on the caller
//    alongside them, returning when all are done.
//  - Parallel regions never nest: a ParallelFor/ParallelForChunked issued
//    from inside a worker (the caller included) runs inline on that worker.
//    This keeps the search job's member-level parallelism from multiplying
//    with kernel parallelism and makes nested calls trivially
//    deadlock-free.
//  - Determinism: ParallelForChunked partitions [0, n) into contiguous
//    chunks and each index is processed by exactly one worker. Kernels that
//    write only index-owned state (one output row per index) are therefore
//    bitwise identical for every thread count.
#ifndef AUTOHENS_UTIL_THREAD_POOL_H_
#define AUTOHENS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ahg {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains the queue (queued tasks still run) and joins all workers.
  ~ThreadPool();

  // Enqueues a task; tasks are dequeued in FIFO order across workers.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int in_flight_ = 0;
  bool shutdown_ = false;
};

// Sets the process-global kernel thread count (clamped to >= 1). Pass 0 to
// reset to the hardware default.
void SetNumThreads(int num_threads);

// Current kernel thread count: the last SetNumThreads() value, or
// std::thread::hardware_concurrency() when unset.
int GetNumThreads();

// True when called from inside a ParallelFor/ParallelForChunked worker;
// parallel primitives use this to run nested loops inline.
bool InParallelRegion();

// RAII override of the global thread count; num_threads <= 0 is a no-op.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int num_threads);
  ~ScopedNumThreads();

  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int saved_;
  bool active_;
};

// Minimum estimated work (in fused multiply-add units) a parallel loop must
// carry before threads are spawned; below it the loop runs inline so tiny
// graphs and unit-test-sized matrices pay no threading overhead. Tests drop
// it to 1 to force the threaded path on small inputs.
void SetMinParallelWork(int64_t min_work);
int64_t GetMinParallelWork();

// RAII override of the min-grain threshold (tests); min_work <= 0 no-ops.
class ScopedMinParallelWork {
 public:
  explicit ScopedMinParallelWork(int64_t min_work);
  ~ScopedMinParallelWork();

  ScopedMinParallelWork(const ScopedMinParallelWork&) = delete;
  ScopedMinParallelWork& operator=(const ScopedMinParallelWork&) = delete;

 private:
  int64_t saved_;
};

// Runs fn(i) for i in [0, n) on min(num_threads, n) workers: the calling
// thread and min(num_threads, n) - 1 new threads, each claiming the next
// unclaimed index, so every index runs exactly once and InParallelRegion()
// is true inside fn on every worker. With num_threads <= 1 — or when
// already inside a parallel region — runs inline in index order.
void ParallelFor(int n, int num_threads, const std::function<void(int)>& fn);

// Runs fn(begin, end) over a partition of [0, n) into contiguous chunks,
// distributed across GetNumThreads() workers, the calling thread being one
// of them as in ParallelFor. `work_per_item` is the caller's estimate of
// per-index cost (in fused multiply-add units); when n * work_per_item
// falls below GetMinParallelWork(), or the loop is nested inside another
// parallel region, the whole range runs inline as fn(0, n). Chunks are
// claimed dynamically but each index belongs to exactly one chunk, so
// index-owned writes need no synchronization.
void ParallelForChunked(int64_t n, int64_t work_per_item,
                        const std::function<void(int64_t, int64_t)>& fn);

}  // namespace ahg

#endif  // AUTOHENS_UTIL_THREAD_POOL_H_
