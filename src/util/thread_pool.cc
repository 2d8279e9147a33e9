#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace ahg {
namespace {

// 0 means "unset": fall back to hardware concurrency.
std::atomic<int> g_num_threads{0};

constexpr int64_t kDefaultMinParallelWork = 32768;
std::atomic<int64_t> g_min_parallel_work{kDefaultMinParallelWork};

// Depth of parallel regions on this thread; > 0 inside a worker task.
thread_local int tl_parallel_depth = 0;

// Runs `drain` on the calling thread and on `workers - 1` new threads, each
// inside a parallel region, and returns once every copy has returned. Each
// copy pulls work from a counter `drain` shares, so the caller takes its
// share of the indices and the call starts one thread fewer than it uses.
void DrainOnThreads(int workers, const std::function<void()>& drain) {
  auto region = [&drain] {
    ++tl_parallel_depth;
    drain();
    --tl_parallel_depth;
  };
  std::vector<std::thread> helpers;
  helpers.reserve(std::max(0, workers - 1));
  for (int w = 1; w < workers; ++w) helpers.emplace_back(region);
  region();
  for (std::thread& helper : helpers) helper.join();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void SetNumThreads(int num_threads) {
  g_num_threads.store(std::max(0, num_threads), std::memory_order_relaxed);
}

int GetNumThreads() {
  int n = g_num_threads.load(std::memory_order_relaxed);
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(1, n);
}

bool InParallelRegion() { return tl_parallel_depth > 0; }

ScopedNumThreads::ScopedNumThreads(int num_threads)
    : saved_(g_num_threads.load(std::memory_order_relaxed)),
      active_(num_threads > 0) {
  if (active_) SetNumThreads(num_threads);
}

ScopedNumThreads::~ScopedNumThreads() {
  if (active_) g_num_threads.store(saved_, std::memory_order_relaxed);
}

void SetMinParallelWork(int64_t min_work) {
  g_min_parallel_work.store(std::max<int64_t>(1, min_work),
                            std::memory_order_relaxed);
}

int64_t GetMinParallelWork() {
  return g_min_parallel_work.load(std::memory_order_relaxed);
}

ScopedMinParallelWork::ScopedMinParallelWork(int64_t min_work)
    : saved_(GetMinParallelWork()) {
  if (min_work > 0) SetMinParallelWork(min_work);
}

ScopedMinParallelWork::~ScopedMinParallelWork() { SetMinParallelWork(saved_); }

void ParallelFor(int n, int num_threads, const std::function<void(int)>& fn) {
  if (num_threads <= 1 || n <= 1 || tl_parallel_depth > 0) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  DrainOnThreads(std::min(num_threads, n), [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  });
}

void ParallelForChunked(int64_t n, int64_t work_per_item,
                        const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  work_per_item = std::max<int64_t>(1, work_per_item);
  const int threads = GetNumThreads();
  if (threads <= 1 || tl_parallel_depth > 0 ||
      n * work_per_item <= GetMinParallelWork()) {
    fn(0, n);
    return;
  }
  // Chunk count: enough for dynamic load balancing (4 per worker), capped so
  // every chunk still clears the min-grain threshold.
  const int64_t by_grain =
      std::max<int64_t>(1, n * work_per_item / GetMinParallelWork());
  const int64_t num_chunks =
      std::min<int64_t>({n, by_grain, int64_t{threads} * 4});
  const int64_t chunk = (n + num_chunks - 1) / num_chunks;
  std::atomic<int64_t> next{0};
  auto drain = [&] {
    for (int64_t c = next.fetch_add(1); c * chunk < n; c = next.fetch_add(1)) {
      const int64_t begin = c * chunk;
      fn(begin, std::min<int64_t>(begin + chunk, n));
    }
  };
  DrainOnThreads(static_cast<int>(std::min<int64_t>(threads, num_chunks)),
                 drain);
}

}  // namespace ahg
