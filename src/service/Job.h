//===- service/Job.h - Typed simulation jobs and their outcomes ----------===//
//
// Part of the ccsim project (CGO 2004 code cache eviction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job vocabulary of the asynchronous simulation service: every
/// workload the serial drivers can launch is one of three typed jobs -- a
/// trace replay (one guest or K guests over one shared engine), a sweep
/// batch, a multi-tenant run -- so the service and the one-shot CLI
/// subcommands execute the exact same code path. Jobs are pure values: a
/// job owns (or shares immutably) everything it needs, runs on any
/// thread, and never touches global state, which is what makes service
/// results byte-identical to serial execution. Every payload's run config
/// is a SimConfig -- ReplayJob::Config, each sweep point's Config, and
/// TenantJob::Policy, a SimConfig plus the tenancy fields -- so every job
/// kind passes the same SimConfig::validate() before it is admitted.
/// Cancellation is not part of a job: it belongs to the run, so
/// executeJob hands its one CancelToken to whichever runner executes the
/// payload.
///
//===----------------------------------------------------------------------===//

#ifndef CCSIM_SERVICE_JOB_H
#define CCSIM_SERVICE_JOB_H

#include "concurrent/MultiTenantSimulator.h"
#include "concurrent/SharedEngineRunner.h"
#include "multisweep/MultiConfigEngine.h"
#include "sim/Simulator.h"
#include "sim/Sweep.h"

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace ccsim::service {

/// Lifecycle of one submitted job. Queued and Running are transient;
/// everything else is terminal.
enum class JobStatus : uint8_t {
  Queued,    ///< Admitted, waiting for a worker.
  Running,   ///< Executing on a pool worker.
  Done,      ///< Completed; the outcome holds results.
  Failed,    ///< Raised an error (invalid trace, engine failure, ...).
  Cancelled, ///< Stopped by an explicit cancel() request.
  TimedOut,  ///< Stopped by its deadline (before or during the run).
  Rejected,  ///< Never admitted: invalid config, full queue under the
             ///< Reject policy, or a draining service.
  Shed,      ///< Admitted but evicted from the queue by the ShedOldest
             ///< backpressure policy before it could run.
};

/// Stable lower-case name of \p S ("done", "timed-out", ...).
const char *jobStatusName(JobStatus S);

/// True for states a job can never leave.
inline bool isTerminal(JobStatus S) {
  return S != JobStatus::Queued && S != JobStatus::Running;
}

/// Replay one trace through one policy (the `simulate`/`replay`
/// subcommands and the sustained-load driver). Every replay runs through
/// concurrent::runShared: one guest is sim::run itself, byte for byte;
/// K > 1 guests share one engine and are audit-validated. The job owns
/// its trace.
struct ReplayJob {
  Trace TraceData;
  GranularitySpec Spec = GranularitySpec::units(8);
  SimConfig Config;

  /// Guest threads sharing the engine, 1..concurrent::MaxGuestThreads.
  unsigned GuestThreads = 1;
};

/// Run a list of sweep-grid points over a shared suite engine (the
/// `suite` subcommand). The engine is immutable during the run and may be
/// shared by many jobs.
struct SweepBatchJob {
  std::shared_ptr<const SweepEngine> Engine;
  std::vector<SweepJob> Jobs;

  /// Grid backend: one-pass (default) evaluates the whole lattice in a
  /// single trace pass per benchmark; per-config replays each point
  /// densely. Reports and metrics are byte-identical either way (the
  /// tests/multisweep contract); points one-pass cannot cover fall back
  /// to dense replay automatically.
  multisweep::SweepMode Mode = multisweep::SweepMode::OnePass;
};

/// Interleave several traces into one shared/partitioned cache (the
/// `tenants` subcommand). The job owns its traces. Policy is the whole
/// run config, a SimConfig like every other job's.
struct TenantJob {
  std::vector<Trace> Traces;
  TenancyPolicy Policy;
};

/// Scheduling metadata attached to a job at submission.
struct JobOptions {
  /// Higher-priority jobs leave the queue first; ties run in submission
  /// order.
  int Priority = 0;

  /// Optional absolute deadline. A job whose deadline expires while
  /// queued times out without running; one that expires mid-run is
  /// stopped at the next trace chunk.
  std::optional<std::chrono::steady_clock::time_point> Deadline;

  /// Telemetry label: tags the job's queue/latency metrics and its
  /// JobState trace events. Defaults to "job-<id>".
  std::string Label;

  JobOptions &withPriority(int P) {
    Priority = P;
    return *this;
  }
  JobOptions &withDeadline(std::chrono::steady_clock::time_point D) {
    Deadline = D;
    return *this;
  }
  JobOptions &withDeadlineIn(std::chrono::nanoseconds FromNow) {
    Deadline = std::chrono::steady_clock::now() + FromNow;
    return *this;
  }
  JobOptions &withLabel(std::string Text) {
    Label = std::move(Text);
    return *this;
  }
};

/// One unit of service work: a typed payload plus scheduling options.
struct Job {
  std::variant<ReplayJob, SweepBatchJob, TenantJob> Payload;
  JobOptions Options;

  Job() = default;
  Job(ReplayJob R, JobOptions O = {})
      : Payload(std::move(R)), Options(std::move(O)) {}
  Job(SweepBatchJob S, JobOptions O = {})
      : Payload(std::move(S)), Options(std::move(O)) {}
  Job(TenantJob T, JobOptions O = {})
      : Payload(std::move(T)), Options(std::move(O)) {}

  /// Stable kind label for metrics: "replay" ("shared-replay" when more
  /// than one guest thread shares the engine) | "sweep" | "tenants".
  const char *kindName() const;

  /// Empty when the payload is runnable; else the descriptive error of
  /// the first failing config (SimConfig::validate and friends). The
  /// service rejects invalid jobs with this message instead of letting a
  /// CCSIM_REQUIRE abort the process mid-run.
  std::string validate() const;
};

/// Result of one terminal job. Exactly one of the payload fields is
/// populated, matching the job's type; Error carries the failure,
/// cancellation, or rejection message otherwise.
struct JobOutcome {
  JobStatus Status = JobStatus::Queued;
  std::string Error;

  std::vector<SimResult> Replay;          ///< ReplayJob: one entry.
  std::vector<SuiteResult> Suite;         ///< SweepBatchJob: one per point.
  std::optional<MultiTenantResult> Tenants; ///< TenantJob.
};

/// Runs \p J to completion on the calling thread — the single execution
/// path shared by the service workers and the serial CLI subcommands
/// (which is why batch output is byte-identical to serial output).
/// \p Cancel, when non-null, is the run's token, handed to the runner
/// (sim::run, runShared, runSweepGrid, MultiTenantSimulator::run), which
/// polls it at trace-chunk granularity; a triggered stop reports
/// Cancelled or TimedOut. Never throws: failures land in the outcome.
JobOutcome executeJob(const Job &J, CancelToken *Cancel);

/// Threads \p Sink into whichever payload \p J carries: the replay's
/// config, every sweep point's config, or the tenant run's policy.
void setJobTelemetry(Job &J, telemetry::TelemetrySink *Sink);

} // namespace ccsim::service

#endif // CCSIM_SERVICE_JOB_H
