//===- service/SimService.cpp - Async simulation job service --------------===//

#include "service/SimService.h"

#include "concurrent/MultiTenantSimulator.h"
#include "sim/Simulator.h"
#include "sim/Sweep.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace ccsim;
using namespace ccsim::service;

//===----------------------------------------------------------------------===//
// Job vocabulary
//===----------------------------------------------------------------------===//

const char *ccsim::service::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Queued:
    return "queued";
  case JobStatus::Running:
    return "running";
  case JobStatus::Done:
    return "done";
  case JobStatus::Failed:
    return "failed";
  case JobStatus::Cancelled:
    return "cancelled";
  case JobStatus::TimedOut:
    return "timed-out";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::Shed:
    return "shed";
  }
  return "unknown";
}

const char *Job::kindName() const {
  if (const auto *R = std::get_if<ReplayJob>(&Payload))
    return R->GuestThreads > 1 ? "shared-replay" : "replay";
  if (std::holds_alternative<SweepBatchJob>(Payload))
    return "sweep";
  return "tenants";
}

std::string Job::validate() const {
  if (const auto *R = std::get_if<ReplayJob>(&Payload)) {
    if (!R->TraceData.validate())
      return "replay job trace '" + R->TraceData.Name +
             "' is structurally invalid";
    if (R->Spec.Kind == GranularitySpec::KindType::Units && R->Spec.Units < 1)
      return "replay job needs at least one eviction unit";
    if (R->GuestThreads < 1 || R->GuestThreads > concurrent::MaxGuestThreads)
      return "replay job needs 1.." +
             std::to_string(concurrent::MaxGuestThreads) +
             " guest threads, not " + std::to_string(R->GuestThreads);
    return R->Config.validateFor(R->TraceData.maxCacheBytes());
  }
  if (const auto *S = std::get_if<SweepBatchJob>(&Payload)) {
    if (!S->Engine)
      return "sweep batch job has no suite engine";
    if (S->Engine->traces().empty())
      return "sweep batch job's suite engine has no benchmarks";
    std::string Err = validateSweepGrid(S->Jobs);
    if (!Err.empty())
      return Err;
    // A derived capacity grows with maxCache: the largest trace bounds
    // every point.
    uint64_t LargestMaxCache = 0;
    for (const Trace &Tr : S->Engine->traces())
      LargestMaxCache = std::max(LargestMaxCache, Tr.maxCacheBytes());
    for (const SweepJob &Point : S->Jobs) {
      Err = Point.Config.validateFor(LargestMaxCache);
      if (!Err.empty())
        return Err;
    }
    return {};
  }
  const auto &T = std::get<TenantJob>(Payload);
  if (T.Traces.empty())
    return "tenant job has no traces";
  uint64_t SuiteMaxCache = 0;
  for (const Trace &Tr : T.Traces) {
    if (!Tr.validate())
      return "tenant job trace '" + Tr.Name + "' is structurally invalid";
    SuiteMaxCache += Tr.maxCacheBytes();
  }
  std::string Err = T.Policy.validateTenantCount(T.Traces.size());
  if (!Err.empty())
    return "tenant job has " + Err;
  Err = T.Policy.validate();
  return Err.empty() ? T.Policy.validateFor(SuiteMaxCache) : Err;
}

namespace {

/// Runs a job that passed Job::validate(): the execution half of
/// executeJob, which the service workers call directly for jobs
/// validated at admission (a job is immutable once submitted).
JobOutcome runValidatedJob(const Job &J, CancelToken *Cancel) {
  JobOutcome Out;
  try {
    if (const auto *R = std::get_if<ReplayJob>(&J.Payload)) {
      // K = 1 is sim::run itself. Every replay surfaces through the
      // SimResult base of SharedRunResult, so every renderer (CLI, batch
      // output, exporters) reads one shape whatever the guest count.
      Out.Replay.push_back(concurrent::runShared(
          R->TraceData, R->Spec, {R->Config, R->GuestThreads}, Cancel));
    } else if (const auto *S = std::get_if<SweepBatchJob>(&J.Payload)) {
      multisweep::MultiSweepOptions Options;
      Options.Mode = S->Mode;
      Options.Cancel = Cancel;
      // Fallback/dedup accounting goes to stderr: reports and metrics
      // files must stay byte-identical across sweep modes, so the
      // accounting can never ride in either.
      Options.Log = [](const std::string &Line) {
        std::fprintf(stderr, "sweep: %s\n", Line.c_str());
      };
      Out.Suite = multisweep::runSweepGrid(*S->Engine, S->Jobs, Options);
    } else {
      const auto &T = std::get<TenantJob>(J.Payload);
      Out.Tenants = MultiTenantSimulator(T.Traces, T.Policy).run(Cancel);
    }
    Out.Status = JobStatus::Done;
  } catch (const ReplayCancelled &RC) {
    Out.Status = RC.TimedOut ? JobStatus::TimedOut : JobStatus::Cancelled;
    Out.Error = RC.what();
    Out.Replay.clear();
    Out.Suite.clear();
    Out.Tenants.reset();
  } catch (const std::exception &E) {
    Out.Status = JobStatus::Failed;
    Out.Error = E.what();
    Out.Replay.clear();
    Out.Suite.clear();
    Out.Tenants.reset();
  }
  return Out;
}

} // namespace

JobOutcome ccsim::service::executeJob(const Job &J, CancelToken *Cancel) {
  std::string Err = J.validate();
  if (!Err.empty()) {
    JobOutcome Out;
    Out.Status = JobStatus::Failed;
    Out.Error = std::move(Err);
    return Out;
  }
  return runValidatedJob(J, Cancel);
}

void ccsim::service::setJobTelemetry(Job &J, telemetry::TelemetrySink *Sink) {
  if (auto *R = std::get_if<ReplayJob>(&J.Payload)) {
    R->Config.Telemetry = Sink;
  } else if (auto *S = std::get_if<SweepBatchJob>(&J.Payload)) {
    for (SweepJob &Point : S->Jobs)
      Point.Config.Telemetry = Sink;
  } else {
    std::get<TenantJob>(J.Payload).Policy.Telemetry = Sink;
  }
}

//===----------------------------------------------------------------------===//
// Backpressure policy names
//===----------------------------------------------------------------------===//

const char *ccsim::service::backpressurePolicyName(BackpressurePolicy P) {
  switch (P) {
  case BackpressurePolicy::Block:
    return "block";
  case BackpressurePolicy::Reject:
    return "reject";
  case BackpressurePolicy::ShedOldest:
    return "shed-oldest";
  }
  return "unknown";
}

std::optional<BackpressurePolicy>
ccsim::service::parseBackpressurePolicy(const std::string &Text) {
  if (Text == "block")
    return BackpressurePolicy::Block;
  if (Text == "reject")
    return BackpressurePolicy::Reject;
  if (Text == "shed" || Text == "shed-oldest")
    return BackpressurePolicy::ShedOldest;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Shared per-job state
//===----------------------------------------------------------------------===//

namespace ccsim::service::detail {

/// The shared state behind one JobHandle. The service mutex orders queue
/// membership; this struct's own mutex orders the status/outcome pair.
/// Lock order is always service mutex before job mutex, never the
/// reverse: JobHandle methods take only the job mutex.
struct JobState {
  uint64_t Id = 0;
  Job TheJob;
  CancelToken Cancel;
  std::string Label;
  uint32_t LabelId = 0;
  std::chrono::steady_clock::time_point SubmitTime;

  mutable Mutex Mu;
  std::condition_variable Terminal;
  JobStatus Status CCSIM_GUARDED_BY(Mu) = JobStatus::Queued;
  uint64_t StartSeq CCSIM_GUARDED_BY(Mu) = 0;
  JobOutcome Outcome CCSIM_GUARDED_BY(Mu);
};

} // namespace ccsim::service::detail

using ccsim::service::detail::JobState;

//===----------------------------------------------------------------------===//
// JobHandle
//===----------------------------------------------------------------------===//

uint64_t JobHandle::id() const { return State ? State->Id : 0; }

JobStatus JobHandle::status() const {
  MutexLock Lock(State->Mu);
  return State->Status;
}

uint64_t JobHandle::startSequence() const {
  MutexLock Lock(State->Mu);
  return State->StartSeq;
}

const JobOutcome &JobHandle::wait() const {
  MutexLock Lock(State->Mu);
  while (!isTerminal(State->Status))
    State->Terminal.wait(Lock.native());
  return State->Outcome;
}

bool JobHandle::waitFor(std::chrono::milliseconds Timeout) const {
  const auto Limit = std::chrono::steady_clock::now() + Timeout;
  MutexLock Lock(State->Mu);
  while (!isTerminal(State->Status))
    if (State->Terminal.wait_until(Lock.native(), Limit) ==
        std::cv_status::timeout)
      return isTerminal(State->Status);
  return true;
}

void JobHandle::cancel() {
  if (State)
    State->Cancel.requestCancel();
}

//===----------------------------------------------------------------------===//
// SimService
//===----------------------------------------------------------------------===//

namespace {

/// Shape of the wait/run latency histograms: 64 buckets of 10 ms.
constexpr double LatencyBucketMs = 10.0;
constexpr size_t LatencyBuckets = 64;

double msBetween(std::chrono::steady_clock::time_point From,
                 std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

} // namespace

SimService::SimService(SimServiceConfig C)
    : Config(std::move(C)), Paused(Config.StartPaused),
      Pool(Config.Threads, /*AlwaysSpawnWorkers=*/true) {
  Config.QueueCapacity = std::max<size_t>(1, Config.QueueCapacity);
}

SimService::~SimService() { drain(); }

void SimService::recordTransition(const JobState &S, JobStatus To) {
  telemetry::TelemetrySink *Sink = Config.Telemetry;
  if (!Sink)
    return;
  Sink->Tracer.record(telemetry::EventKind::JobState,
                      static_cast<uint32_t>(S.Id), telemetry::NoBlock,
                      S.LabelId, static_cast<uint64_t>(To), S.Id);
  if (isTerminal(To))
    Sink->Metrics
        .counter("service_jobs_finished",
                 {{"kind", S.TheJob.kindName()}, {"status", jobStatusName(To)}})
        .increment();
}

void SimService::updateQueueGauges(size_t Depth) {
  QueueDepthPeak = std::max<uint64_t>(QueueDepthPeak, Depth);
  if (telemetry::TelemetrySink *Sink = Config.Telemetry) {
    Sink->Metrics.gauge("service_queue_depth").set(static_cast<double>(Depth));
    Sink->Metrics.gauge("service_queue_depth_peak")
        .set(static_cast<double>(QueueDepthPeak));
  }
}

void SimService::finish(const std::shared_ptr<JobState> &S, JobStatus Terminal,
                        std::string Error, JobOutcome Outcome) {
  Outcome.Status = Terminal;
  if (!Error.empty())
    Outcome.Error = std::move(Error);
  // Count the transition before publishing it: a waiter that sees the
  // terminal status also sees it in service_jobs_finished.
  recordTransition(*S, Terminal);
  {
    MutexLock Lock(S->Mu);
    S->Outcome = std::move(Outcome);
    S->Status = Terminal;
  }
  S->Terminal.notify_all();
}

JobHandle SimService::submit(Job J) {
  auto S = std::make_shared<JobState>();
  S->TheJob = std::move(J);
  S->SubmitTime = std::chrono::steady_clock::now();

  // Admission happens under the service mutex: id assignment, validation
  // verdicts, and backpressure all serialize here.
  std::string Invalid = S->TheJob.validate();
  bool Admitted = false;
  std::string RejectError;
  std::shared_ptr<JobState> Victim;
  {
    MutexLock Lock(Mu);
    S->Id = NextJobId++;
    if (S->TheJob.Options.Label.empty())
      S->TheJob.Options.Label = "job-" + std::to_string(S->Id);
    S->Label = S->TheJob.Options.Label;
    if (Config.Telemetry)
      S->LabelId = Config.Telemetry->Tracer.internLabel(S->Label);
    if (Config.Telemetry)
      Config.Telemetry->Metrics
          .counter("service_jobs_submitted", {{"kind", S->TheJob.kindName()}})
          .increment();

    if (!Invalid.empty()) {
      RejectError = "invalid job: " + Invalid;
    } else if (Draining) {
      RejectError = "service is draining";
    } else {
      if (Queue.size() >= Config.QueueCapacity) {
        switch (Config.Pressure) {
        case BackpressurePolicy::Block:
          while (Queue.size() >= Config.QueueCapacity && !Draining)
            SpaceAvailable.wait(Lock.native());
          if (Draining)
            RejectError = "service is draining";
          break;
        case BackpressurePolicy::Reject: {
          char Buf[96];
          std::snprintf(Buf, sizeof(Buf),
                        "queue full (%zu jobs) under the reject policy",
                        Queue.size());
          RejectError = Buf;
          break;
        }
        case BackpressurePolicy::ShedOldest:
          // The deque is in submission order, so the front is the oldest
          // job still queued.
          Victim = Queue.front();
          Queue.pop_front();
          break;
        }
      }
      if (RejectError.empty()) {
        Queue.push_back(S);
        updateQueueGauges(Queue.size());
        Admitted = true;
      }
    }
  }

  if (Victim) {
    if (Config.Telemetry)
      Config.Telemetry->Metrics.counter("service_jobs_shed").increment();
    finish(Victim, JobStatus::Shed,
           "shed from a full queue by a newer submission", {});
  }

  if (!Admitted) {
    if (Config.Telemetry)
      Config.Telemetry->Metrics.counter("service_jobs_rejected").increment();
    finish(S, JobStatus::Rejected, std::move(RejectError), {});
    return JobHandle(std::move(S));
  }

  recordTransition(*S, JobStatus::Queued);
  // One pump task per admitted job. A pump that finds the queue empty
  // (its job was shed) simply returns.
  Pool.submit([this] { runOne(); });
  return JobHandle(std::move(S));
}

std::shared_ptr<JobState> SimService::popBest() {
  if (Queue.empty())
    return nullptr;
  // Highest priority first; ties resolve to the earliest submission. The
  // deque is in submission (id) order, so a strict > keeps FIFO ties.
  auto Best = Queue.begin();
  for (auto It = std::next(Queue.begin()); It != Queue.end(); ++It)
    if ((*It)->TheJob.Options.Priority > (*Best)->TheJob.Options.Priority)
      Best = It;
  std::shared_ptr<JobState> S = std::move(*Best);
  Queue.erase(Best);
  return S;
}

void SimService::runOne() {
  std::shared_ptr<JobState> S;
  {
    MutexLock Lock(Mu);
    while (Paused)
      Unpaused.wait(Lock.native());
    S = popBest();
    if (!S)
      return;
    ++Running;
    updateQueueGauges(Queue.size());
  }
  SpaceAvailable.notify_one();

  if (S->TheJob.Options.Deadline)
    S->Cancel.setDeadline(*S->TheJob.Options.Deadline);

  const auto PickTime = std::chrono::steady_clock::now();
  const double WaitMs = msBetween(S->SubmitTime, PickTime);
  if (telemetry::TelemetrySink *Sink = Config.Telemetry) {
    Sink->Metrics
        .histogram("service_wait_ms", LatencyBucketMs, LatencyBuckets,
                   {{"kind", S->TheJob.kindName()}})
        .observe(WaitMs);
    Sink->Metrics.gauge("service_job_wait_ms", {{"job", S->Label}})
        .set(WaitMs);
  }

  // A deadline or cancellation that fired while the job sat in the queue
  // resolves it without running it at all.
  if (const char *Reason = S->Cancel.stopReason()) {
    finish(S,
           S->Cancel.timedOut() ? JobStatus::TimedOut : JobStatus::Cancelled,
           std::string("stopped while queued: ") + Reason, {});
  } else {
    uint64_t Seq;
    {
      MutexLock Lock(Mu);
      Seq = NextStartSeq++;
    }
    {
      MutexLock Lock(S->Mu);
      S->Status = JobStatus::Running;
      S->StartSeq = Seq;
    }
    recordTransition(*S, JobStatus::Running);

    // Admission validated the job and it has not changed since, so the
    // worker skips executeJob's second scan of its traces.
    JobOutcome Outcome = runValidatedJob(S->TheJob, &S->Cancel);
    const double RunMs = msBetween(PickTime, std::chrono::steady_clock::now());
    if (telemetry::TelemetrySink *Sink = Config.Telemetry) {
      Sink->Metrics
          .histogram("service_run_ms", LatencyBucketMs, LatencyBuckets,
                     {{"kind", S->TheJob.kindName()}})
          .observe(RunMs);
      Sink->Metrics.gauge("service_job_run_ms", {{"job", S->Label}})
          .set(RunMs);
    }
    const JobStatus Terminal = Outcome.Status;
    finish(S, Terminal, "", std::move(Outcome));
  }

  {
    MutexLock Lock(Mu);
    --Running;
  }
}

void SimService::start() {
  {
    MutexLock Lock(Mu);
    Paused = false;
  }
  Unpaused.notify_all();
}

void SimService::drain() {
  {
    MutexLock Lock(Mu);
    Draining = true;
    Paused = false;
  }
  Unpaused.notify_all();
  SpaceAvailable.notify_all();
  // Every admitted job holds one pump task, so an idle pool means every
  // admitted job is terminal.
  Pool.waitIdle();
  MutexLock Lock(Mu);
  updateQueueGauges(Queue.size());
}

bool SimService::draining() const {
  MutexLock Lock(Mu);
  return Draining;
}

size_t SimService::queueDepth() const {
  MutexLock Lock(Mu);
  return Queue.size();
}

size_t SimService::runningCount() const {
  MutexLock Lock(Mu);
  return Running;
}
