// Stress tests pinning the ThreadPool contract the parallel kernels rely
// on: FIFO dequeue order, Wait() covering everything submitted so far,
// destruction draining queued work, the calling thread working as one of a
// parallel loop's workers, and nested ParallelFor calls running inline
// instead of deadlocking or oversubscribing.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/thread_pool.h"

namespace ahg {
namespace {

TEST(ThreadPoolStressTest, SubmitWaitHammer) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  // Repeated Submit/Wait rounds: Wait must observe every task of its round.
  for (int round = 0; round < 50; ++round) {
    const int tasks = 1 + round % 7;
    for (int t = 0; t < tasks; ++t) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    pool.Wait();
  }
  int expected = 0;
  for (int round = 0; round < 50; ++round) expected += 1 + round % 7;
  EXPECT_EQ(done.load(), expected);
}

TEST(ThreadPoolStressTest, SingleWorkerRunsFifo) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolStressTest, ConcurrentSubmittersAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&pool, &done] {
      for (int i = 0; i < 200; ++i) {
        pool.Submit([&done] { done.fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(done.load(), 4 * 200);
}

TEST(ThreadPoolStressTest, DestructorDrainsQueuedWork) {
  // The destructor contract: queued-but-unstarted tasks still run before
  // join. With 1 worker and many tasks most of the queue is still pending
  // when the destructor fires.
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // No Wait(): destruction must drain.
  }
  EXPECT_EQ(done.load(), 500);
}

TEST(ThreadPoolStressTest, NestedParallelForCompletesAndRunsInline) {
  std::atomic<int> outer_hits{0};
  std::atomic<int> inner_hits{0};
  std::atomic<int> nested_regions{0};
  ParallelFor(8, 4, [&](int) {
    outer_hits.fetch_add(1);
    EXPECT_TRUE(InParallelRegion());
    // The nested loop must run inline on this worker — no second pool, no
    // deadlock — and still cover its full range.
    ParallelFor(16, 4, [&](int) { inner_hits.fetch_add(1); });
    ParallelForChunked(32, 1 << 20, [&](int64_t begin, int64_t end) {
      nested_regions.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(outer_hits.load(), 8);
  EXPECT_EQ(inner_hits.load(), 8 * 16);
  EXPECT_EQ(nested_regions.load(), 8 * 32);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ThreadPoolStressTest, DeeplyNestedParallelForNoDeadlock) {
  std::atomic<int> leaves{0};
  ParallelFor(4, 2, [&](int) {
    ParallelFor(4, 2, [&](int) {
      ParallelFor(4, 2, [&](int) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

TEST(ThreadPoolStressTest, ParallelForChunkedCoversRangeOnce) {
  ScopedMinParallelWork min_work(1);
  ScopedNumThreads threads(5);
  std::vector<std::atomic<int>> hits(1000);
  ParallelForChunked(1000, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolStressTest, ParallelForChunkedInlineBelowMinGrain) {
  // Tiny total work stays on the calling thread as a single chunk.
  ScopedNumThreads threads(8);
  int calls = 0;
  bool inline_region = true;
  ParallelForChunked(16, 1, [&](int64_t begin, int64_t end) {
    ++calls;
    inline_region = inline_region && !InParallelRegion();
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 16);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(inline_region);
}

// Blocks each caller until `parties` callers have arrived, so a loop of
// `parties` indices on `parties` workers gives every worker exactly one
// index. A worker that never joins fails the wait instead of hanging.
void ArriveAndWait(std::atomic<int>& arrived, int parties) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (arrived.load() < parties) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "only " << arrived.load() << " of " << parties << " workers ran";
    std::this_thread::yield();
  }
}

TEST(ThreadPoolStressTest, ParallelForRunsIndicesOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::vector<std::thread::id> ran_on(3);
  std::vector<char> in_region(3, 0);
  ParallelFor(3, 3, [&](int i) {
    ran_on[i] = std::this_thread::get_id();
    in_region[i] = InParallelRegion();
    ArriveAndWait(arrived, 3);
  });
  EXPECT_FALSE(InParallelRegion());
  int on_caller = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(in_region[i]) << i;
    on_caller += ran_on[i] == caller;
  }
  EXPECT_EQ(on_caller, 1);
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_NE(ran_on[0], ran_on[2]);
  EXPECT_NE(ran_on[1], ran_on[2]);
}

TEST(ThreadPoolStressTest, ParallelForChunkedRunsAChunkOnTheCaller) {
  ScopedMinParallelWork min_work(1);
  ScopedNumThreads threads(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::atomic<int> on_caller{0};
  std::atomic<int> outside_region{0};
  ParallelForChunked(2, 1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(end, begin + 1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    if (!InParallelRegion()) outside_region.fetch_add(1);
    ArriveAndWait(arrived, 2);
  });
  EXPECT_EQ(on_caller.load(), 1);
  EXPECT_EQ(outside_region.load(), 0);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ThreadPoolStressTest, ParallelForRunsEachIndexOnce) {
  for (int threads : {2, 3, 4, 7}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(1000, threads, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < 1000; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << i << " at " << threads << " threads";
    }
  }
}

TEST(ThreadPoolStressTest, NestedCallsRunInlineOnTheirWorker) {
  ScopedMinParallelWork min_work(1);
  ScopedNumThreads threads(4);
  std::atomic<int> elsewhere{0};
  std::atomic<int> inner_hits{0};
  ParallelFor(6, 3, [&](int) {
    const std::thread::id worker = std::this_thread::get_id();
    ParallelFor(5, 4, [&](int) {
      if (std::this_thread::get_id() != worker) elsewhere.fetch_add(1);
      inner_hits.fetch_add(1);
    });
    ParallelForChunked(64, 1 << 20, [&](int64_t begin, int64_t end) {
      if (std::this_thread::get_id() != worker) elsewhere.fetch_add(1);
      EXPECT_EQ(begin, 0);
      EXPECT_EQ(end, 64);
    });
  });
  EXPECT_EQ(inner_hits.load(), 6 * 5);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPoolStressTest, ScopedSettingsRestore) {
  const int before = GetNumThreads();
  {
    ScopedNumThreads threads(3);
    EXPECT_EQ(GetNumThreads(), 3);
    ScopedNumThreads noop(0);
    EXPECT_EQ(GetNumThreads(), 3);
  }
  EXPECT_EQ(GetNumThreads(), before);
  const int64_t grain_before = GetMinParallelWork();
  {
    ScopedMinParallelWork grain(7);
    EXPECT_EQ(GetMinParallelWork(), 7);
  }
  EXPECT_EQ(GetMinParallelWork(), grain_before);
}

}  // namespace
}  // namespace ahg
