//===- concurrent/ThreadPool.cpp - Fixed worker pool + parallel-for -------===//

#include "concurrent/ThreadPool.h"
#include "support/Contracts.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>

#ifdef __linux__
#include <sched.h>
#endif

using namespace ccsim;

unsigned ThreadPool::hardwareThreads() {
  unsigned Usable = 0;
#ifdef __linux__
  // hardware_concurrency() counts every CPU of the machine, including
  // ones a taskset or cpuset forbids; more workers than usable CPUs only
  // time-slice. The calling thread's mask is what its pools inherit.
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  if (sched_getaffinity(0, sizeof(Mask), &Mask) == 0)
    Usable = static_cast<unsigned>(CPU_COUNT(&Mask));
#endif
  if (Usable == 0)
    Usable = std::thread::hardware_concurrency();
  return Usable ? std::min(Usable, MaxThreads) : 4;
}

ThreadPool::ThreadPool(unsigned NumThreads, bool AlwaysSpawnWorkers)
    : NumThreads(NumThreads ? NumThreads : hardwareThreads()) {
  CCSIM_REQUIRE(this->NumThreads <= MaxThreads,
                "thread pool of %u workers exceeds the bound of %u",
                this->NumThreads, MaxThreads);
  // A one-thread pool runs everything inline; no worker needed — unless
  // the caller wants submit() to be asynchronous even then.
  if (this->NumThreads <= 1 && !AlwaysSpawnWorkers)
    return;
  Workers.reserve(this->NumThreads);
  try {
    for (unsigned T = 0; T < this->NumThreads; ++T)
      Workers.emplace_back([this]() { workerLoop(); });
  } catch (...) {
    // A spawn failed part-way and the destructor will not run; destroying
    // a joinable std::thread terminates, so join the started workers.
    stopAndJoin();
    throw;
  }
}

ThreadPool::~ThreadPool() { stopAndJoin(); }

void ThreadPool::stopAndJoin() {
  {
    MutexLock Lock(Mu);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      MutexLock Lock(Mu);
      while (!Stopping && Queue.empty())
        WorkAvailable.wait(Lock.native());
      if (Queue.empty())
        return; // Stopping, and no pending work left to drain.
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++ActiveTasks;
    }
    Task();
    {
      MutexLock Lock(Mu);
      --ActiveTasks;
      if (Queue.empty() && ActiveTasks == 0)
        Idle.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  CCSIM_REQUIRE(Task, "cannot submit an empty task");
  if (Workers.empty()) {
    // Inline execution preserves FIFO semantics trivially.
    Task();
    return;
  }
  {
    MutexLock Lock(Mu);
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::waitIdle() {
  if (Workers.empty())
    return;
  MutexLock Lock(Mu);
  while (!Queue.empty() || ActiveTasks != 0)
    Idle.wait(Lock.native());
}

size_t ThreadPool::pendingTasks() const {
  MutexLock Lock(Mu);
  return Queue.size();
}

size_t ThreadPool::activeTaskCount() const {
  MutexLock Lock(Mu);
  return ActiveTasks;
}

namespace {

/// Shared state of one parallelFor region. The workers and the issuing
/// thread synchronize on Mu; the chunk cursor and failure flag stay
/// atomic so the hot claim path takes no lock.
struct ForRegion {
  std::atomic<size_t> Next{0};
  std::atomic<bool> Failed{false};

  Mutex Mu;
  std::condition_variable Done;
  size_t PendingTasks CCSIM_GUARDED_BY(Mu) = 0;
  size_t FailIndex CCSIM_GUARDED_BY(Mu) = std::numeric_limits<size_t>::max();
  std::exception_ptr Error CCSIM_GUARDED_BY(Mu);

  void recordFailure(size_t Index, std::exception_ptr E) CCSIM_EXCLUDES(Mu) {
    Failed.store(true, std::memory_order_relaxed);
    MutexLock Lock(Mu);
    if (Index < FailIndex) {
      FailIndex = Index;
      Error = std::move(E);
    }
  }
};

} // namespace

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body,
                             size_t ChunkSize) {
  if (N == 0)
    return;
  if (Workers.empty()) {
    for (size_t I = 0; I < N; ++I)
      Body(I); // Exceptions propagate directly; index order is sequential.
    return;
  }

  if (ChunkSize == 0)
    ChunkSize = std::max<size_t>(1, N / (size_t(NumThreads) * 4));
  const size_t NumChunks = (N + ChunkSize - 1) / ChunkSize;
  const size_t NumTasks = std::min<size_t>(NumThreads, NumChunks);

  ForRegion Region;
  {
    MutexLock Lock(Region.Mu);
    Region.PendingTasks = NumTasks;
  }

  auto Work = [&Region, &Body, N, ChunkSize]() {
    for (;;) {
      if (Region.Failed.load(std::memory_order_relaxed))
        break;
      const size_t Begin = Region.Next.fetch_add(ChunkSize);
      if (Begin >= N)
        break;
      const size_t End = std::min(N, Begin + ChunkSize);
      for (size_t I = Begin; I < End; ++I) {
        try {
          Body(I);
        } catch (...) {
          Region.recordFailure(I, std::current_exception());
          break;
        }
      }
    }
    MutexLock Lock(Region.Mu);
    if (--Region.PendingTasks == 0)
      Region.Done.notify_all();
  };

  for (size_t T = 0; T < NumTasks; ++T)
    submit(Work);
  std::exception_ptr Error;
  {
    MutexLock Lock(Region.Mu);
    while (Region.PendingTasks != 0)
      Region.Done.wait(Lock.native());
    Error = Region.Error;
  }
  if (Error)
    std::rethrow_exception(Error);
}

void ccsim::parallelFor(unsigned NumThreads, size_t N,
                        const std::function<void(size_t)> &Body) {
  ThreadPool Pool(NumThreads);
  Pool.parallelFor(N, Body);
}
