//===- concurrent/ThreadPool.h - Fixed worker pool + parallel-for ---------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker thread pool and a chunked parallel-for built on it.
/// This is the execution substrate for every concurrent path in the
/// project (parallel sweeps, multi-tenant experiments): simulation cells
/// are pure functions of their inputs, so all parallelism here is
/// embarrassingly parallel fan-out with deterministic, index-ordered
/// result placement.
///
/// Guarantees:
///   - parallelFor(N, Body) invokes Body(I) exactly once for every
///     I in [0, N); callers write results into slot I, so output is
///     identical regardless of thread count or scheduling,
///   - exceptions thrown by Body are captured and the one from the
///     lowest failing index is rethrown on the calling thread after all
///     workers quiesce (no index after the first failure is guaranteed to
///     run, every index before it is),
///   - N == 0 is a no-op; N smaller than the thread count and pools
///     larger than the hardware both work (oversubscription-safe),
///   - a pool of one thread executes inline on the calling thread,
///   - a pool never holds more than MaxThreads workers; a failed spawn
///     joins the workers already started before the error propagates.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_CONCURRENT_THREADPOOL_H
#define CCSIM_CONCURRENT_THREADPOOL_H

#include "support/ThreadSafety.h"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

namespace ccsim {

/// Fixed worker pool with a FIFO task queue.
class ThreadPool {
public:
  /// Upper bound on the OS threads a pool (or a shared-engine replay)
  /// starts, so a hostile flag or manifest cannot ask for thousands.
  static constexpr unsigned MaxThreads = 256;

  /// Spawns \p NumThreads workers, at most MaxThreads; 0 means
  /// hardwareThreads(). By default a one-thread pool executes inline on
  /// the calling thread; \p AlwaysSpawnWorkers forces a real worker even
  /// then, so submit() never blocks the submitter (what an asynchronous
  /// service needs).
  explicit ThreadPool(unsigned NumThreads = 0,
                      bool AlwaysSpawnWorkers = false);

  /// Joins all workers. Pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned threadCount() const { return NumThreads; }

  /// Enqueues \p Task for execution on some worker.
  void submit(std::function<void()> Task) CCSIM_EXCLUDES(Mu);

  /// Blocks until the queue is empty and every worker is idle.
  void waitIdle() CCSIM_EXCLUDES(Mu);

  /// Tasks submitted but not yet picked up by a worker.
  size_t pendingTasks() const CCSIM_EXCLUDES(Mu);

  /// Tasks currently executing on a worker.
  size_t activeTaskCount() const CCSIM_EXCLUDES(Mu);

  /// Runs Body(0) .. Body(N-1) across the pool in contiguous chunks and
  /// blocks until all have finished. \p ChunkSize 0 picks a chunk that
  /// yields ~4 chunks per worker (good load balance for uneven cells).
  /// Rethrows the exception of the lowest failing index, if any.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body,
                   size_t ChunkSize = 0) CCSIM_EXCLUDES(Mu);

  /// The CPUs the calling thread may run on (its affinity mask, e.g.
  /// under taskset), else hardware concurrency, else 4; capped at
  /// MaxThreads. What "0 threads" means everywhere.
  static unsigned hardwareThreads();

private:
  unsigned NumThreads;           ///< Immutable after construction.
  std::vector<std::thread> Workers; ///< Immutable after construction.

  mutable Mutex Mu;
  std::condition_variable WorkAvailable;
  std::condition_variable Idle;
  std::deque<std::function<void()>> Queue CCSIM_GUARDED_BY(Mu);
  size_t ActiveTasks CCSIM_GUARDED_BY(Mu) = 0;
  bool Stopping CCSIM_GUARDED_BY(Mu) = false;

  void workerLoop() CCSIM_EXCLUDES(Mu);
  void stopAndJoin() CCSIM_EXCLUDES(Mu);
};

/// One-shot convenience: runs \p Body over [0, N) on a transient pool of
/// \p NumThreads workers (0 = hardwareThreads()). Use a long-lived
/// ThreadPool when issuing many parallel regions.
void parallelFor(unsigned NumThreads, size_t N,
                 const std::function<void(size_t)> &Body);

} // namespace ccsim

#endif // CCSIM_CONCURRENT_THREADPOOL_H
