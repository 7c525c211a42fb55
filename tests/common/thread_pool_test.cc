#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace embellish {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 100, 1, [&](size_t begin, size_t end) {
    calls.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunksRespectMinGrainAndAreContiguous) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  constexpr size_t kGrain = 64;
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(0, kN, kGrain, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  size_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    ASSERT_LT(begin, end);
    covered += end - begin;
    // Every chunk except the final partial one is at least the grain.
    if (end != kN) EXPECT_GE(end - begin, kGrain);
  }
  EXPECT_EQ(covered, kN);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::vector<uint64_t> values(kN);
  std::iota(values.begin(), values.end(), 1);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(0, kN, 128, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += values[i];
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), kN * (kN + 1) / 2);
}

TEST(ThreadPoolTest, BackToBackJobsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 256, 1,
                     [&](size_t begin, size_t end) {
                       count.fetch_add(static_cast<int>(end - begin));
                     });
    ASSERT_EQ(count.load(), 256) << "round " << round;
  }
}

TEST(ThreadPoolTest, ReportsCpuTime) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sink{0};
  const double cpu_ms =
      pool.ParallelFor(0, 4, 1, [&](size_t begin, size_t end) {
        // Sequentially-dependent LCG chain: cannot be folded away, so each
        // chunk burns measurable CPU.
        uint64_t local = begin + 1;
        for (uint64_t j = 0; j < 5000000 * (end - begin); ++j) {
          local = local * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        sink.fetch_add(local, std::memory_order_relaxed);
      });
  EXPECT_GT(cpu_ms, 0.0);
  EXPECT_NE(sink.load(), 0u);
}

TEST(ThreadPoolTest, ConcurrentCallersFromDistinctThreadsAllComplete) {
  // Several threads (batch workers, catalog builders) call ParallelFor on
  // one shared pool at once. A call may degrade to caller-thread execution
  // when the workers are busy, but every caller must still complete its
  // full index range exactly once.
  ThreadPool pool(3);
  constexpr size_t kCallers = 6;
  constexpr size_t kRange = 512;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) {
    v = std::vector<std::atomic<int>>(kRange);
    for (auto& h : v) h.store(0);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(0, kRange, 1, [&, c](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[c][i].fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, DefaultPoolIsSingleton) {
  ThreadPool* a = ThreadPool::Default();
  ThreadPool* b = ThreadPool::Default();
  EXPECT_EQ(a, b);
  EXPECT_GE(a->num_threads(), 1u);
}

}  // namespace
}  // namespace embellish
