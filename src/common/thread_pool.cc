#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/stopwatch.h"

namespace embellish {

// One in-flight parallel region. Participants claim contiguous chunks from
// `next`; the participant that completes the final index signals `done`. The
// region lives on the caller's stack, so lifetime is guarded twice: `done`
// proves every index ran, and `active` proves every worker that entered
// Participate() has left before the caller may return.
struct ThreadPool::Region {
  size_t end = 0;
  size_t chunk = 1;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> next{0};
  std::atomic<size_t> remaining{0};
  std::atomic<int> active{0};

  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;

  std::atomic<int64_t> cpu_micros{0};

  // Heuristic only (workers poll it before committing to the region): the
  // cursor may be exhausted by the time a claim lands, which Participate()
  // handles by returning immediately.
  bool claimable() const {
    return next.load(std::memory_order_relaxed) < end;
  }

  // Runs the claimed chunk [start, stop). Returns whether it completed the
  // region's final index. After a true return (or after `remaining`
  // reaches zero) the region may be torn down by the caller, so all
  // bookkeeping for a chunk happens before that chunk's decrement.
  bool RunChunk(size_t start, size_t stop) {
    CpuStopwatch cpu;
    (*fn)(start, stop);
    cpu_micros.fetch_add(cpu.ElapsedMicros(), std::memory_order_relaxed);
    const size_t len = stop - start;
    if (remaining.fetch_sub(len, std::memory_order_acq_rel) == len) {
      std::lock_guard<std::mutex> lock(done_mu);
      done = true;
      done_cv.notify_all();
      return true;
    }
    return false;
  }

  // Drains chunks until the index space is exhausted. Returns whether this
  // thread completed the region's final index.
  bool Participate() {
    while (true) {
      const size_t start = next.fetch_add(chunk, std::memory_order_relaxed);
      if (start >= end) return false;
      if (RunChunk(start, std::min(end, start + chunk))) return true;
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) return;  // inline mode
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  // A worker switches from the timed-rescan regime to an indefinite "deep
  // park" only after this many consecutive rescan timeouts finding nothing
  // claimable (~160 ms without stealable work). The hysteresis is what
  // reconciles three constraints: an idle pool must not poll forever (the
  // process-wide Default() pool lives for the process), an active stream
  // of short regions on a one-core box must not pay a wake-up per region
  // (the eager clamp deliberately wakes nobody there), and a region must
  // never be stranded (while anyone is deep-parked, registration wakes one
  // worker past the clamp, which restores the timed regime).
  constexpr size_t kDeepParkAfterTimeouts = 16;
  std::unique_lock<std::mutex> lock(mu_);
  // Rotating scan start: workers spread across concurrent regions instead
  // of piling onto regions_[0], which is what keeps one long region from
  // starving the others (the fairness the stress tests assert).
  size_t rr = worker_index;
  size_t barren_timeouts = 0;
  while (true) {
    Region* region = nullptr;
    const size_t count = regions_.size();
    for (size_t i = 0; i < count; ++i) {
      Region* r = regions_[(rr + i) % count];
      if (r->claimable()) {
        region = r;
        rr = (rr + i + 1) % count;
        break;
      }
    }
    if (region == nullptr) {
      // Reaching here means the scan found nothing claimable — a stable
      // condition until a new registration (an exhausted cursor never
      // becomes claimable again), which is what makes deep-parking on it
      // safe: registrations wake a deep-parked worker via the clamp
      // override. Gating on "nothing claimable" rather than "no regions"
      // keeps a long-running region's idle co-workers from timed-rescan
      // churn for its whole duration.
      if (shutdown_) return;
      ++idle_workers_;
      if (barren_timeouts >= kDeepParkAfterTimeouts) {
        ++deep_parked_;
        work_ready_.wait(lock);
        --deep_parked_;
        barren_timeouts = 0;
      } else {
        // Timed, not indefinite: the periodic rescan is what guarantees a
        // parked worker still discovers claimable chunks on a machine
        // whose eager clamp is zero — liveness for chunks that block on a
        // sibling's side effect costs ~10 ms instead of a per-region
        // context switch.
        const auto status =
            work_ready_.wait_for(lock, std::chrono::milliseconds(10));
        if (status == std::cv_status::timeout) {
          ++barren_timeouts;
        } else {
          barren_timeouts = 0;  // an explicit notify signals new work
        }
      }
      --idle_workers_;
      continue;  // rescan; spurious and timeout wakes rescan too
    }
    barren_timeouts = 0;
    // Committed under mu_: once the caller removes the region from
    // regions_ under mu_, no further worker can enter, and `active` covers
    // those that did.
    region->active.fetch_add(1, std::memory_order_relaxed);
    // Chain the wake-up: two racing registrations can aim their notifies at
    // the same sleeper, so a committing worker recruits one more whenever
    // claimable work remains and someone is still parked — wake-ups then
    // propagate until the sleepers or the chunks run out.
    if (idle_workers_ > 0) {
      for (Region* r : regions_) {
        if (r->claimable()) {
          work_ready_.notify_one();
          break;
        }
      }
    }
    lock.unlock();
    region->Participate();
    region->active.fetch_sub(1, std::memory_order_release);
    lock.lock();
  }
}

double ThreadPool::ParallelFor(size_t begin, size_t end, size_t min_grain,
                               const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return 0.0;
  if (min_grain == 0) min_grain = 1;
  const size_t n = end - begin;

  if (workers_.empty() || n <= min_grain) {
    CpuStopwatch cpu;
    fn(begin, end);
    return cpu.ElapsedMillis();
  }

  Region region;
  region.end = end;
  // ~4 chunks per participant balances tail latency against chunk overhead
  // while keeping each chunk a contiguous, cache-friendly index range. When
  // the pool is wider than the machine (oversubscribed), more chunks only
  // buy context switches, so chunking follows the hardware width instead.
  size_t participants = workers_.size() + 1;
  const size_t hw = std::thread::hardware_concurrency();
  if (hw != 0 && participants > hw) participants = hw;
  region.chunk =
      std::max(min_grain, (n + 4 * participants - 1) / (4 * participants));
  region.fn = &fn;
  // The caller reserves the first chunk before the region is published:
  // woken workers can drain every other chunk, never this one, so the
  // caller always runs part of its own region instead of sleeping on
  // `done_cv` while its workers are needed elsewhere.
  const size_t first_stop = std::min(end, begin + region.chunk);
  region.next.store(first_stop, std::memory_order_relaxed);
  region.remaining.store(n, std::memory_order_relaxed);

  // Wake only workers that can actually help: one per chunk beyond the one
  // the caller claims itself, never more than are parked, and never more
  // than the hardware minus the caller's own core. On a one-core box that
  // is ZERO eager wake-ups — parallel workers there only buy context
  // switches (the PR 3 pooled-mode collapse), and the caller drains its
  // own region at serial speed; parked workers still discover the region
  // through their periodic rescan (see WorkerLoop), which is the liveness
  // path for chunks that genuinely block on a sibling. Under-waking is
  // safe everywhere: a woken worker that commits to a region chains one
  // further wake-up while claimable work and sleepers remain, and busy
  // workers need no wake-up at all — they rescan the region list whenever
  // their current region's cursor is exhausted (that rescan IS the
  // cross-region steal).
  const size_t chunks = (n + region.chunk - 1) / region.chunk;
  const size_t hw_spare = hw == 0 ? workers_.size() : hw - 1;
  size_t wake = std::min(chunks - 1, hw_spare);
  {
    std::lock_guard<std::mutex> lock(mu_);
    regions_.push_back(&region);
    // A deep-parked worker (see WorkerLoop) is only reachable by notify,
    // so its presence overrides the hardware clamp: one wake restores the
    // timed-rescan regime for everything that follows. Absent deep parks,
    // an under-woken region is covered by the parked workers' own rescan
    // timers and by busy workers finishing their chunks.
    if (wake == 0 && deep_parked_ > 0) wake = 1;
    wake = std::min(wake, idle_workers_);
  }
  for (size_t i = 0; i < wake; ++i) work_ready_.notify_one();

  if (!region.RunChunk(begin, first_stop) && !region.Participate()) {
    std::unique_lock<std::mutex> lock(region.done_mu);
    region.done_cv.wait(lock, [&] { return region.done; });
  }

  // Close the region to new entrants, then wait out any worker still inside
  // Participate() (its remaining work is at most one exhausted-cursor
  // check).
  {
    std::lock_guard<std::mutex> lock(mu_);
    regions_.erase(std::find(regions_.begin(), regions_.end(), &region));
  }
  while (region.active.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  return static_cast<double>(
             region.cpu_micros.load(std::memory_order_relaxed)) /
         1000.0;
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool* pool = [] {
    size_t threads = std::thread::hardware_concurrency();
    if (const char* env = std::getenv("EMBELLISH_THREADS");
        env != nullptr && *env != '\0') {
      char* endp = nullptr;
      const unsigned long parsed = std::strtoul(env, &endp, 10);
      if (endp != nullptr && *endp == '\0' && parsed > 0) {
        threads = static_cast<size_t>(parsed);
      }
    }
    if (threads == 0) threads = 1;
    return new ThreadPool(threads);
  }();
  return pool;
}

}  // namespace embellish
