//===- service/SimService.h - Async simulation job service ---------------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An embeddable asynchronous job service over the simulation library:
/// typed jobs (service/Job.h) are admitted through a bounded queue with a
/// selectable backpressure policy, scheduled onto the existing ThreadPool
/// by priority, and tracked through a future-like JobHandle from Queued to
/// a terminal state. This is the request-serving layer the batch CLI and
/// embedding applications talk to, in the way Memshare fronts its
/// multi-tenant cache and ShareJIT wraps its shared code cache behind a
/// managed API.
///
/// Determinism: the service only decides *when and where* a job runs,
/// never *what it computes* — every job executes the same executeJob()
/// path the serial drivers use, on its own private cache structures — so
/// a batch of jobs produces byte-identical per-job results to running
/// them serially, regardless of thread count, priorities, or scheduling.
///
/// Observability: when given a TelemetrySink the service exposes, via
/// MetricsRegistry, queue depth (current + peak), wait/run latency
/// histograms per job kind, per-job wait/run gauges under the job's
/// label, and counters per terminal state (done / failed / cancelled /
/// timed-out / rejected / shed), plus JobState trace events for every
/// transition.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SERVICE_SIMSERVICE_H
#define CCSIM_SERVICE_SIMSERVICE_H

#include "concurrent/ThreadPool.h"
#include "service/Job.h"
#include "support/ThreadSafety.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

namespace ccsim::service {

/// What submit() does when the admission queue is full.
enum class BackpressurePolicy : uint8_t {
  Block,     ///< Block the submitter until space frees up.
  Reject,    ///< Fail the submission immediately (status Rejected).
  ShedOldest ///< Evict the oldest queued job (status Shed) to make room.
};

/// Stable lower-case name ("block" | "reject" | "shed-oldest").
const char *backpressurePolicyName(BackpressurePolicy P);

/// Parses "block" | "reject" | "shed" | "shed-oldest".
std::optional<BackpressurePolicy>
parseBackpressurePolicy(const std::string &Text);

/// Construction-time service configuration.
struct SimServiceConfig {
  /// Worker threads (0 = ThreadPool::hardwareThreads()). Workers are
  /// always real threads: submit() never executes a job on the submitting
  /// thread.
  unsigned Threads = 0;

  /// Admission queue capacity (jobs queued but not yet running).
  size_t QueueCapacity = 64;

  /// Policy applied when the queue is full.
  BackpressurePolicy Pressure = BackpressurePolicy::Block;

  /// When true the service admits jobs but does not run any until
  /// start(): drivers can enqueue a whole batch and release it at once,
  /// making priority order deterministic for the entire batch.
  bool StartPaused = false;

  /// Service-side telemetry (queue/latency/outcome instruments and
  /// JobState events). Distinct from any sink the jobs themselves carry;
  /// null disables service telemetry entirely.
  telemetry::TelemetrySink *Telemetry = nullptr;
};

namespace detail {
struct JobState;
} // namespace detail

/// Shared-state handle to one submitted job. Copyable; all members are
/// thread-safe. A default-constructed handle is invalid.
class JobHandle {
public:
  JobHandle() = default;

  bool valid() const { return State != nullptr; }

  /// Service-assigned id (1-based, in submission order).
  uint64_t id() const;

  /// Current lifecycle state.
  JobStatus status() const;

  /// Order in which the job began running (1-based); 0 if it never ran.
  uint64_t startSequence() const;

  /// Blocks until the job reaches a terminal state and returns its
  /// outcome. The reference stays valid for the handle's lifetime.
  const JobOutcome &wait() const;

  /// Waits up to \p Timeout; true when the job is terminal.
  bool waitFor(std::chrono::milliseconds Timeout) const;

  /// Requests cooperative cancellation: a queued job is cancelled before
  /// it runs; a running job stops at its next trace chunk. Terminal jobs
  /// are unaffected.
  void cancel();

private:
  friend class SimService;
  explicit JobHandle(std::shared_ptr<detail::JobState> S)
      : State(std::move(S)) {}

  std::shared_ptr<detail::JobState> State;
};

/// The asynchronous simulation job service.
class SimService {
public:
  explicit SimService(SimServiceConfig Config = {});

  /// Drains: in-flight jobs complete, then workers join.
  ~SimService();

  SimService(const SimService &) = delete;
  SimService &operator=(const SimService &) = delete;

  /// Validates and admits \p J. Always returns a handle: invalid jobs,
  /// rejected submissions (full queue under Reject, draining service),
  /// and shed jobs all surface as terminal handles with a descriptive
  /// Error — submit() never aborts the process and only blocks under the
  /// Block policy.
  JobHandle submit(Job J) CCSIM_EXCLUDES(Mu);

  /// Releases a paused service's queue (no-op otherwise).
  void start() CCSIM_EXCLUDES(Mu);

  /// Stops admitting, completes every already-admitted job, flushes the
  /// telemetry sink's final gauges, and joins nothing (workers stay for
  /// the destructor). Safe to call more than once.
  void drain() CCSIM_EXCLUDES(Mu);

  bool draining() const CCSIM_EXCLUDES(Mu);

  /// Jobs admitted but not yet running.
  size_t queueDepth() const CCSIM_EXCLUDES(Mu);

  /// Jobs currently executing.
  size_t runningCount() const CCSIM_EXCLUDES(Mu);

  unsigned threadCount() const { return Pool.threadCount(); }

private:
  SimServiceConfig Config;

  mutable Mutex Mu;
  std::condition_variable SpaceAvailable; ///< Blocked submitters.
  std::condition_variable Unpaused;       ///< Workers of a paused service.
  std::deque<std::shared_ptr<detail::JobState>> Queue CCSIM_GUARDED_BY(Mu);
  bool Paused CCSIM_GUARDED_BY(Mu) = false;
  bool Draining CCSIM_GUARDED_BY(Mu) = false;
  size_t Running CCSIM_GUARDED_BY(Mu) = 0;
  uint64_t NextJobId CCSIM_GUARDED_BY(Mu) = 1;
  uint64_t NextStartSeq CCSIM_GUARDED_BY(Mu) = 1;
  uint64_t QueueDepthPeak CCSIM_GUARDED_BY(Mu) = 0;

  ThreadPool Pool; ///< Last member: workers must die before the state.

  void runOne() CCSIM_EXCLUDES(Mu);
  void finish(const std::shared_ptr<detail::JobState> &S, JobStatus Terminal,
              std::string Error, JobOutcome Outcome) CCSIM_EXCLUDES(Mu);
  void recordTransition(const detail::JobState &S, JobStatus To);
  void updateQueueGauges(size_t Depth) CCSIM_REQUIRES(Mu);
  std::shared_ptr<detail::JobState> popBest() CCSIM_REQUIRES(Mu);
};

} // namespace ccsim::service

#endif // CCSIM_SERVICE_SIMSERVICE_H
