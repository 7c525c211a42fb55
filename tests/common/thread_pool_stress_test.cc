// Stress and semantics tests for the multi-region work-stealing executor:
// concurrent callers, nested regions (the batch×shard composition the
// server relies on), cross-region stealing, fairness under a blocked
// region, and the no-deadlock guarantees. Run under TSan in CI (the test
// name matches the thread-sanitize job's filter).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace embellish {
namespace {

// A latch the tests can spin up pre-C++20-style (std::latch exists, but a
// cv-based one lets a waiter time out into a diagnosable failure instead of
// hanging the whole suite on a regression).
class TestLatch {
 public:
  explicit TestLatch(int count) : count_(count) {}

  // Arrives and waits for everyone else; false on timeout.
  bool ArriveAndWait(std::chrono::seconds timeout = std::chrono::seconds(60)) {
    std::unique_lock<std::mutex> lock(mu_);
    if (--count_ <= 0) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_for(lock, timeout, [&] { return count_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

TEST(ThreadPoolStressTest, NestedRegionOnTheSamePoolCompletes) {
  // Regression: the PR 1 pool forbade ParallelFor from inside a chunk (the
  // single job slot would have been clobbered). The executor must run the
  // nested region as just another region.
  ThreadPool pool(3);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(0, kOuter, 1, [&](size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      pool.ParallelFor(0, kInner, 1, [&, o](size_t ib, size_t ie) {
        for (size_t i = ib; i < ie; ++i) {
          hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolStressTest, ConcurrentCallersWithNestedFanOutsAllComplete) {
  // The server's shape: N batch callers, each request fanning out over M
  // shards on the same pool. Every (caller, outer, inner) index must run
  // exactly once, with no deadlock and no lost region, while regions from
  // six callers churn through a three-worker pool. TSan-clean is part of
  // the assertion (CI runs this under -fsanitize=thread).
  ThreadPool pool(3);
  constexpr size_t kCallers = 6;
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kCallers * kOuter * kInner);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        if (round > 0) {
          // Later rounds only re-cover the same indexes; reset first.
          for (size_t i = 0; i < kOuter * kInner; ++i) {
            hits[c * kOuter * kInner + i].store(0, std::memory_order_relaxed);
          }
        }
        pool.ParallelFor(0, kOuter, 1, [&, c](size_t ob, size_t oe) {
          for (size_t o = ob; o < oe; ++o) {
            pool.ParallelFor(0, kInner, 1, [&, c, o](size_t ib, size_t ie) {
              for (size_t i = ib; i < ie; ++i) {
                hits[(c * kOuter + o) * kInner + i].fetch_add(
                    1, std::memory_order_relaxed);
              }
            });
          }
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolStressTest, WorkerJoinsTheCallersRegion) {
  // Two chunks that each wait for the other to start can only complete if
  // a worker claims the second chunk while the caller is blocked in the
  // first — direct evidence that registration wakes a worker into the
  // region rather than leaving the caller to drain it alone.
  ThreadPool pool(2);
  TestLatch both_started(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 2, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      EXPECT_TRUE(both_started.ArriveAndWait()) << "chunk " << i
          << " never saw its sibling start";
      ran.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolStressTest, WorkersStealAcrossConcurrentCallersRegions) {
  // Two independent callers, each with a two-chunk region, all four chunks
  // meeting at one barrier: completion requires both workers to have
  // stolen into the two regions concurrently with both callers — the
  // cross-region progress the single-job pool could not give (its losing
  // caller ran inline only after the winner finished).
  ThreadPool pool(2);
  TestLatch all_four(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      pool.ParallelFor(0, 2, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          EXPECT_TRUE(all_four.ArriveAndWait())
              << "cross-region barrier timed out";
          ran.fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolStressTest, WorkersStealAcrossStaggeredCallersRegions) {
  // The staggered variant: the second caller registers 10 ms after the
  // first, once both workers have had time to wake into the first region.
  // Completion still needs one worker in each region. It holds because a
  // caller reserves its first chunk before publishing its region: the two
  // workers cannot both be absorbed by the first region, and its caller is
  // never left asleep while its region's last chunk waits for a worker.
  ThreadPool pool(2);
  TestLatch all_four(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      if (c == 1) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      pool.ParallelFor(0, 2, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          EXPECT_TRUE(all_four.ArriveAndWait())
              << "staggered cross-region barrier timed out";
          ran.fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolStressTest, CallerRunsTheFirstIndexOfEveryRegion) {
  // Regression: ParallelFor used to publish its region and wake workers
  // before the caller claimed a chunk, so awake workers could take every
  // chunk and leave the caller asleep on its own region. The caller now
  // reserves its first chunk before publishing, so index `begin` runs on
  // the caller's thread in every region — here while two background
  // callers keep every worker cycling between regions.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> background;
  for (int b = 0; b < 2; ++b) {
    background.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        pool.ParallelFor(0, 64, 1, [](size_t, size_t) {});
      }
    });
  }
  constexpr size_t kRegions = 2000;
  const std::thread::id caller = std::this_thread::get_id();
  size_t shut_out = 0;
  for (size_t r = 0; r < kRegions; ++r) {
    const size_t begin = 2 * r;
    std::atomic<bool> caller_ran_begin{false};
    pool.ParallelFor(begin, begin + 2, 1, [&](size_t b, size_t) {
      if (b == begin && std::this_thread::get_id() == caller) {
        caller_ran_begin.store(true, std::memory_order_relaxed);
      }
    });
    if (!caller_ran_begin.load(std::memory_order_relaxed)) ++shut_out;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : background) t.join();
  EXPECT_EQ(shut_out, 0u) << "regions of " << kRegions
                          << " whose caller did not run index begin";
}

TEST(ThreadPoolStressTest, BlockedRegionDoesNotStarveOtherCallers) {
  // Fairness/starvation: one caller's region parks every thread it can get
  // on a flag; a second caller must still push many small regions through
  // to completion (its own participation guarantees progress, and workers
  // finishing the blocked region's chunks rescan the region list). Only
  // then is the first region released.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> small_regions_done{0};

  std::thread blocked([&] {
    pool.ParallelFor(0, 4, 1, [&](size_t, size_t) {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  });

  std::thread small([&] {
    for (int round = 0; round < 50; ++round) {
      std::atomic<int> count{0};
      pool.ParallelFor(0, 64, 1, [&](size_t begin, size_t end) {
        count.fetch_add(static_cast<int>(end - begin),
                        std::memory_order_relaxed);
      });
      ASSERT_EQ(count.load(), 64) << "round " << round;
      small_regions_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  small.join();
  EXPECT_EQ(small_regions_done.load(), 50);
  release.store(true, std::memory_order_release);
  blocked.join();
}

TEST(ThreadPoolStressTest, RegionAfterSustainedQuiescenceCompletes) {
  // After ~160 ms of quiescence workers deep-park indefinitely (no idle
  // polling). A region registered then must still complete — including one
  // whose chunks NEED a second thread — because registration wakes one
  // deep-parked worker past the hardware clamp and that worker restores
  // the timed-rescan regime.
  ThreadPool pool(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  std::atomic<int> count{0};
  pool.ParallelFor(0, 64, 1, [&](size_t begin, size_t end) {
    count.fetch_add(static_cast<int>(end - begin),
                    std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64);

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  TestLatch both_started(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 2, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      EXPECT_TRUE(both_started.ArriveAndWait())
          << "sibling chunk never started after deep park";
      ran.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolStressTest, DeepNestingCompletes) {
  // Nesting depth bounded only by the stack: four levels of regions on one
  // two-worker pool, every leaf index covered exactly once.
  ThreadPool pool(2);
  constexpr size_t kFan = 4;
  std::atomic<size_t> leaves{0};
  std::function<void(size_t)> descend = [&](size_t depth) {
    if (depth == 0) {
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pool.ParallelFor(0, kFan, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) descend(depth - 1);
    });
  };
  descend(4);
  EXPECT_EQ(leaves.load(), kFan * kFan * kFan * kFan);
}

TEST(ThreadPoolStressTest, CpuAccountingSurvivesConcurrentRegions) {
  // Each caller's ParallelFor must report its own region's CPU, even while
  // other regions run: the per-region counter must not bleed across
  // regions. (Exact attribution under nesting is documented best-effort;
  // all this asserts is per-region isolation of the counters and a
  // non-zero spin measurement.)
  ThreadPool pool(3);
  constexpr size_t kCallers = 3;
  std::vector<double> cpu(kCallers, 0.0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::atomic<uint64_t> sink{0};
      cpu[c] = pool.ParallelFor(0, 8, 1, [&](size_t begin, size_t end) {
        uint64_t local = begin + 1;
        for (uint64_t j = 0; j < 2000000 * (end - begin); ++j) {
          local = local * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        sink.fetch_add(local, std::memory_order_relaxed);
      });
      EXPECT_NE(sink.load(), 0u);
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_GT(cpu[c], 0.0) << "caller " << c;
  }
}

}  // namespace
}  // namespace embellish
