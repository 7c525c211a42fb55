// Multi-region work-stealing executor behind the codebase's ParallelFor.
//
// PR 1's pool ran exactly one ParallelFor region at a time, which was fine
// while tasks never spawned subtasks. The moment batched serving (PR 2) and
// sharded retrieval (PR 3) composed — N batch workers each fanning their
// query out over M shards — the one-job limit meant every concurrent caller
// but one degraded to inline execution, and the server needed dedicated
// sub-pools (`shard_threads`) just to keep regions from colliding. This
// executor removes the limit:
//
//   - Each ParallelFor caller reserves the first chunk of a *region* (an
//     atomic chunk cursor over [begin, end) plus a grain), enqueues the
//     region onto the executor's active-region list, runs the reserved
//     chunk and then claims further chunks of its own region.
//   - Workers drain the region list round-robin: when the region a worker
//     is participating in runs out of unclaimed chunks, the worker steals
//     from the next active region instead of going idle, so concurrent and
//     nested regions share the whole pool.
//   - ParallelFor may be called from inside a chunk of another region on
//     the same pool (it enqueues a further region and participates in it);
//     nesting depth is bounded only by the call stack.
//
// Blocking semantics are unchanged: ParallelFor returns only when every
// index of its region has run. The caller always participates (its first
// chunk is reserved before any worker can see the region), so completion
// never depends on worker availability — a fully-busy executor degrades to
// the caller draining its own region inline (losing parallelism, never
// progress), and a region can never deadlock waiting for a worker.
//
// Wake-up discipline: registration wakes at most min(idle workers, chunks
// beyond the caller's first, spare hardware threads) sleepers — zero on a
// one-core box, where parallel workers only buy context switches (the
// PR 3 `BENCH_shards.json` pooled-mode collapse). Committing workers
// chain further wake-ups while claimable work remains, and parked workers
// rescan the region list on a short timer as the liveness backstop, so
// under-waking never strands a region. After ~160 ms of sustained
// quiescence a worker deep-parks indefinitely (an idle pool polls
// nothing); while anyone is deep-parked, registration wakes one worker
// past the hardware clamp to restore the timed regime.
//
// CPU accounting: the Section 5.2 metrics report server CPU milliseconds,
// not wall time. ParallelFor measures per-thread CPU inside `fn` and
// returns the total across all participating threads (including the
// caller). A nested ParallelFor reports its own region's time to its own
// caller; an outer region that also times the nesting thread will observe
// that thread's share of the nested work too, so compositions that need
// exact totals should consume the *inner* return values (every current
// caller either does that or discards the outer value).

#ifndef EMBELLISH_COMMON_THREAD_POOL_H_
#define EMBELLISH_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace embellish {

/// \brief A fixed pool of worker threads draining concurrent ParallelFor
///        regions (see file comment).
class ThreadPool {
 public:
  /// \brief Spawns `num_threads` workers. 0 or 1 means "inline": no threads
  ///        are spawned and all work runs on the calling thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Number of threads that execute work (>= 1; counts the caller
  ///        when the pool is inline).
  size_t num_threads() const { return std::max<size_t>(1, workers_.size()); }

  /// \brief Runs `fn(chunk_begin, chunk_end)` over a partition of
  ///        [begin, end) into contiguous chunks of at least `min_grain`
  ///        indices, across the workers plus the calling thread. Blocks
  ///        until every chunk has completed.
  ///
  /// `fn` must be safe to invoke concurrently from multiple threads. It MAY
  /// call ParallelFor on this pool (concurrent and nested regions compose;
  /// see file comment). It must not assume any two chunks run concurrently:
  /// with no workers to spare the caller runs every chunk itself, so a chunk
  /// that blocks waiting for a sibling chunk's side effect can deadlock.
  /// Returns the total thread-CPU milliseconds spent inside `fn` summed over
  /// all participating threads.
  double ParallelFor(size_t begin, size_t end, size_t min_grain,
                     const std::function<void(size_t, size_t)>& fn);

  /// \brief Process-wide pool, created on first use with EMBELLISH_THREADS
  ///        threads (default: std::thread::hardware_concurrency()). Never
  ///        destroyed. Setting EMBELLISH_THREADS=1 forces serial execution.
  static ThreadPool* Default();

 private:
  struct Region;

  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::vector<Region*> regions_;  // active regions; guarded by mu_
  size_t idle_workers_ = 0;       // workers parked on work_ready_; by mu_
  size_t deep_parked_ = 0;        // subset of idle in indefinite park
  bool shutdown_ = false;         // guarded by mu_
};

}  // namespace embellish

#endif  // EMBELLISH_COMMON_THREAD_POOL_H_
