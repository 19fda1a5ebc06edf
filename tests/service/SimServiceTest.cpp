//===- tests/service/SimServiceTest.cpp - Async job service tests ---------===//

#include "service/SimService.h"

#include "telemetry/Exporters.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceIO.h"
#include "gtest/gtest.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <variant>
#include <vector>

using namespace ccsim;
using namespace ccsim::service;

namespace {

Trace scaledTrace(const char *Name, double Factor, uint64_t Seed = 42) {
  const WorkloadModel *M = findWorkload(Name);
  return TraceGenerator::generateBenchmark(scaledWorkload(*M, Factor), Seed);
}

/// A hand-built trace whose replay time scales linearly with
/// \p NumAccesses: the cycling access pattern over a half-sized cache
/// makes every access a miss-plus-eviction, so the timing-sensitive tests
/// (deadline, cancel) get a run that is reliably long without depending
/// on the workload models.
Trace syntheticTrace(size_t NumBlocks, size_t NumAccesses) {
  Trace T;
  T.Name = "synthetic";
  T.Blocks.resize(NumBlocks);
  for (SuperblockDef &B : T.Blocks)
    B.SizeBytes = 4096;
  T.Accesses.resize(NumAccesses);
  for (size_t I = 0; I < NumAccesses; ++I)
    T.Accesses[I] = static_cast<SuperblockId>(I % NumBlocks);
  return T;
}

Job replayJob(const char *Name, double Factor, GranularitySpec Spec,
              double Pressure, JobOptions Options = {}) {
  ReplayJob R;
  R.TraceData = scaledTrace(Name, Factor);
  R.Spec = Spec;
  R.Config.PressureFactor = Pressure;
  return Job(std::move(R), std::move(Options));
}

/// A job over the synthetic trace; thrashes for roughly as long as
/// \p NumAccesses dictates, checking its cancel token every 64 accesses.
Job thrashingJob(size_t NumAccesses, JobOptions Options = {}) {
  ReplayJob R;
  R.TraceData = syntheticTrace(64, NumAccesses);
  R.Spec = GranularitySpec::fine();
  R.Config.ExplicitCapacityBytes = 64 * 4096 / 2;
  R.Config.CancelCheckInterval = 64;
  return Job(std::move(R), std::move(Options));
}

/// The mixed workload used by the byte-identity test: every job kind,
/// several policies, scrambled priorities.
std::vector<Job> mixedJobs() {
  std::vector<Job> Jobs;
  Jobs.push_back(replayJob("gzip", 0.05, GranularitySpec::units(8), 8.0,
                           JobOptions().withPriority(1)));
  Jobs.push_back(replayJob("crafty", 0.05, GranularitySpec::flush(), 10.0));
  Jobs.push_back(replayJob("vpr", 0.05, GranularitySpec::fine(), 6.0,
                           JobOptions().withPriority(4)));

  auto Engine =
      std::make_shared<SweepEngine>(SweepEngine::forScaledTable1(0.02));
  SweepBatchJob Sweep;
  Sweep.Engine = Engine;
  SimConfig Base;
  Base.PressureFactor = 2.0;
  Sweep.Jobs = makeSweepGrid(
      {GranularitySpec::flush(), GranularitySpec::fine()}, {2.0}, Base);
  Jobs.push_back(Job(std::move(Sweep), JobOptions().withPriority(2)));

  TenantJob Tenants;
  Tenants.Traces.push_back(scaledTrace("gzip", 0.05));
  Tenants.Traces.push_back(scaledTrace("vpr", 0.05));
  Tenants.Policy.Mode = PartitionMode::Shared;
  Tenants.Policy.PressureFactor = 2.0;
  Jobs.push_back(Job(std::move(Tenants), JobOptions().withPriority(3)));
  return Jobs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism: service vs. serial execution
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, ServiceRunMatchesSerialExecutionByteForByte) {
  // Run the mixed batch twice: once through a multi-threaded service with
  // scrambled priorities, once serially via executeJob on this thread.
  // Each job writes into its own metrics registry; the rendered CSVs must
  // match byte for byte.
  std::vector<Job> ServiceJobs = mixedJobs();
  std::vector<Job> SerialJobs = mixedJobs();
  ASSERT_EQ(ServiceJobs.size(), SerialJobs.size());

  std::vector<std::unique_ptr<telemetry::TelemetrySink>> ServiceSinks;
  std::vector<std::unique_ptr<telemetry::TelemetrySink>> SerialSinks;
  for (size_t I = 0; I < ServiceJobs.size(); ++I) {
    ServiceSinks.push_back(std::make_unique<telemetry::TelemetrySink>());
    SerialSinks.push_back(std::make_unique<telemetry::TelemetrySink>());
    setJobTelemetry(ServiceJobs[I], ServiceSinks[I].get());
    setJobTelemetry(SerialJobs[I], SerialSinks[I].get());
  }

  SimServiceConfig SC;
  SC.Threads = 4;
  SC.QueueCapacity = ServiceJobs.size();
  SimService Service(SC);
  std::vector<JobHandle> Handles;
  for (Job &J : ServiceJobs)
    Handles.push_back(Service.submit(std::move(J)));

  for (size_t I = 0; I < Handles.size(); ++I) {
    const JobOutcome &Async = Handles[I].wait();
    ASSERT_EQ(Async.Status, JobStatus::Done) << Async.Error;
    const JobOutcome Serial = executeJob(SerialJobs[I], nullptr);
    ASSERT_EQ(Serial.Status, JobStatus::Done) << Serial.Error;

    ASSERT_EQ(Async.Replay.size(), Serial.Replay.size());
    for (size_t R = 0; R < Async.Replay.size(); ++R) {
      EXPECT_EQ(Async.Replay[R].Stats.Misses, Serial.Replay[R].Stats.Misses);
      EXPECT_EQ(Async.Replay[R].Stats.EvictionInvocations,
                Serial.Replay[R].Stats.EvictionInvocations);
      EXPECT_DOUBLE_EQ(Async.Replay[R].Stats.totalOverhead(true),
                       Serial.Replay[R].Stats.totalOverhead(true));
    }
    ASSERT_EQ(Async.Suite.size(), Serial.Suite.size());
    for (size_t P = 0; P < Async.Suite.size(); ++P) {
      EXPECT_EQ(Async.Suite[P].PolicyLabel, Serial.Suite[P].PolicyLabel);
      EXPECT_EQ(Async.Suite[P].Combined.Misses,
                Serial.Suite[P].Combined.Misses);
      EXPECT_DOUBLE_EQ(Async.Suite[P].Combined.missRate(),
                       Serial.Suite[P].Combined.missRate());
    }
    ASSERT_EQ(Async.Tenants.has_value(), Serial.Tenants.has_value());
    if (Async.Tenants) {
      EXPECT_EQ(Async.Tenants->Global.Misses, Serial.Tenants->Global.Misses);
      EXPECT_EQ(Async.Tenants->CrossEvictedBlocks,
                Serial.Tenants->CrossEvictedBlocks);
    }

    EXPECT_EQ(telemetry::renderMetricsCsv(ServiceSinks[I]->Metrics),
              telemetry::renderMetricsCsv(SerialSinks[I]->Metrics))
        << "job " << I << " metrics diverged from serial execution";
  }
}

//===----------------------------------------------------------------------===//
// Backpressure policies
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, RejectPolicyFailsFastWhenQueueIsFull) {
  telemetry::TelemetrySink Sink;
  SimServiceConfig SC;
  SC.Threads = 1;
  SC.QueueCapacity = 1;
  SC.Pressure = BackpressurePolicy::Reject;
  SC.StartPaused = true; // Keep the first job queued.
  SC.Telemetry = &Sink;
  SimService Service(SC);

  JobHandle Kept = Service.submit(thrashingJob(1000));
  JobHandle R1 = Service.submit(thrashingJob(1000));
  JobHandle R2 = Service.submit(thrashingJob(1000));

  // Rejection is synchronous: the handles are terminal before start().
  EXPECT_EQ(R1.status(), JobStatus::Rejected);
  EXPECT_EQ(R2.status(), JobStatus::Rejected);
  EXPECT_NE(R1.wait().Error.find("queue full"), std::string::npos)
      << R1.wait().Error;
  EXPECT_EQ(R1.startSequence(), 0u);

  Service.start();
  EXPECT_EQ(Kept.wait().Status, JobStatus::Done) << Kept.wait().Error;
  EXPECT_EQ(Sink.Metrics.counterValue("service_jobs_rejected"), 2u);
  EXPECT_EQ(Sink.Metrics.counterValue(
                "service_jobs_finished",
                {{"kind", "replay"}, {"status", "rejected"}}),
            2u);
}

TEST(SimServiceTest, ShedOldestEvictsTheOldestQueuedJob) {
  telemetry::TelemetrySink Sink;
  SimServiceConfig SC;
  SC.Threads = 1;
  SC.QueueCapacity = 2;
  SC.Pressure = BackpressurePolicy::ShedOldest;
  SC.StartPaused = true;
  SC.Telemetry = &Sink;
  SimService Service(SC);

  JobHandle Oldest = Service.submit(thrashingJob(1000));
  JobHandle Second = Service.submit(thrashingJob(1000));
  JobHandle Third = Service.submit(thrashingJob(1000)); // Evicts Oldest.

  EXPECT_EQ(Oldest.wait().Status, JobStatus::Shed);
  EXPECT_NE(Oldest.wait().Error.find("shed"), std::string::npos);
  EXPECT_EQ(Oldest.startSequence(), 0u);

  Service.start();
  EXPECT_EQ(Second.wait().Status, JobStatus::Done);
  EXPECT_EQ(Third.wait().Status, JobStatus::Done);
  EXPECT_EQ(Sink.Metrics.counterValue("service_jobs_shed"), 1u);
}

TEST(SimServiceTest, BlockPolicyCompletesEveryJob) {
  // A one-slot queue under Block: submitters stall until space frees up,
  // and every job still completes.
  SimServiceConfig SC;
  SC.Threads = 2;
  SC.QueueCapacity = 1;
  SC.Pressure = BackpressurePolicy::Block;
  SimService Service(SC);

  std::vector<JobHandle> Handles;
  for (int I = 0; I < 6; ++I)
    Handles.push_back(Service.submit(thrashingJob(10000)));
  for (JobHandle &H : Handles)
    EXPECT_EQ(H.wait().Status, JobStatus::Done) << H.wait().Error;
  EXPECT_EQ(Service.queueDepth(), 0u);
}

//===----------------------------------------------------------------------===//
// Deadlines and cancellation
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, DeadlineExpiredWhileQueuedTimesOutWithoutRunning) {
  SimServiceConfig SC;
  SC.Threads = 1;
  SC.StartPaused = true;
  SimService Service(SC);

  JobHandle H = Service.submit(thrashingJob(
      1000, JobOptions().withDeadlineIn(std::chrono::milliseconds(1))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Service.start();

  const JobOutcome &O = H.wait();
  EXPECT_EQ(O.Status, JobStatus::TimedOut);
  EXPECT_NE(O.Error.find("deadline"), std::string::npos) << O.Error;
  EXPECT_TRUE(O.Replay.empty());
  EXPECT_EQ(H.startSequence(), 0u) << "job must not have run";
}

TEST(SimServiceTest, DeadlineTimesOutAJobTheReplayCannotFinish) {
  // The replay needs on the order of a second; the deadline is 100ms.
  // Whether it fires during validation, pickup, or mid-replay (all are
  // inside the deadline window by design), the job must surface as
  // TimedOut with its partial results discarded — never Done.
  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);

  Job J = thrashingJob(20000000);
  J.Options.withDeadlineIn(std::chrono::milliseconds(100));
  JobHandle H = Service.submit(std::move(J));
  const JobOutcome &O = H.wait();
  EXPECT_EQ(O.Status, JobStatus::TimedOut) << O.Error;
  EXPECT_TRUE(O.Replay.empty()) << "partial results must be discarded";
}

TEST(SimServiceTest, DeadlineStopsAReplayMidTrace) {
  // Deterministic mid-replay expiry: the replay runs on this thread for
  // on the order of a second, and a controller thread arms an
  // already-expired deadline 100ms in — exactly what a service worker's
  // token sees when the deadline fires mid-run. The replay must stop at
  // its next chunk boundary and report TimedOut, not Cancelled.
  CancelToken Token;
  std::thread Controller([&Token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Token.setDeadline(std::chrono::steady_clock::now());
  });
  const JobOutcome O = executeJob(thrashingJob(20000000), &Token);
  Controller.join();
  EXPECT_EQ(O.Status, JobStatus::TimedOut) << O.Error;
  EXPECT_NE(O.Error.find("deadline"), std::string::npos) << O.Error;
  EXPECT_TRUE(O.Replay.empty()) << "partial results must be discarded";
}

TEST(SimServiceTest, CancelStopsARunningReplay) {
  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);

  JobHandle H = Service.submit(thrashingJob(20000000));
  // Wait until the worker has actually picked the job up, then cancel.
  while (H.status() == JobStatus::Queued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(H.status(), JobStatus::Running);
  H.cancel();

  const JobOutcome &O = H.wait();
  EXPECT_EQ(O.Status, JobStatus::Cancelled);
  EXPECT_TRUE(O.Replay.empty());
}

TEST(SimServiceTest, CancelWhileQueuedNeverRuns) {
  SimServiceConfig SC;
  SC.Threads = 1;
  SC.StartPaused = true;
  SimService Service(SC);

  JobHandle H = Service.submit(thrashingJob(1000));
  EXPECT_FALSE(H.waitFor(std::chrono::milliseconds(10)))
      << "a paused service must not run jobs";
  H.cancel();
  Service.start();

  const JobOutcome &O = H.wait();
  EXPECT_EQ(O.Status, JobStatus::Cancelled);
  EXPECT_NE(O.Error.find("stopped while queued"), std::string::npos)
      << O.Error;
  EXPECT_EQ(H.startSequence(), 0u);
}

//===----------------------------------------------------------------------===//
// Priorities
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, PriorityOrderControlsStartSequence) {
  // A paused single-thread service releases its whole queue at once, so
  // start order is exactly priority order with FIFO ties.
  SimServiceConfig SC;
  SC.Threads = 1;
  SC.QueueCapacity = 8;
  SC.StartPaused = true;
  SimService Service(SC);

  JobHandle P0 = Service.submit(thrashingJob(1000));
  JobHandle P5a =
      Service.submit(thrashingJob(1000, JobOptions().withPriority(5)));
  JobHandle P1 =
      Service.submit(thrashingJob(1000, JobOptions().withPriority(1)));
  JobHandle P5b =
      Service.submit(thrashingJob(1000, JobOptions().withPriority(5)));

  Service.start();
  Service.drain();

  EXPECT_EQ(P5a.startSequence(), 1u);
  EXPECT_EQ(P5b.startSequence(), 2u) << "ties must run in submission order";
  EXPECT_EQ(P1.startSequence(), 3u);
  EXPECT_EQ(P0.startSequence(), 4u);
}

//===----------------------------------------------------------------------===//
// Drain
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, DrainCompletesAdmittedJobsThenRejectsNewOnes) {
  SimServiceConfig SC;
  SC.Threads = 2;
  SimService Service(SC);

  std::vector<JobHandle> Handles;
  for (int I = 0; I < 4; ++I)
    Handles.push_back(Service.submit(thrashingJob(200000)));
  Service.drain();

  EXPECT_TRUE(Service.draining());
  for (JobHandle &H : Handles)
    EXPECT_EQ(H.status(), JobStatus::Done)
        << "drain must complete every admitted job";

  JobHandle Late = Service.submit(thrashingJob(1000));
  EXPECT_EQ(Late.wait().Status, JobStatus::Rejected);
  EXPECT_NE(Late.wait().Error.find("draining"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Failure injection
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, InvalidConfigIsRejectedWithoutPoisoningTheQueue) {
  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);

  Job Bad = thrashingJob(1000);
  std::get<ReplayJob>(Bad.Payload).Config.ExplicitCapacityBytes = 0;
  std::get<ReplayJob>(Bad.Payload).Config.PressureFactor = 0.5;
  JobHandle BadHandle = Service.submit(std::move(Bad));

  const JobOutcome &O = BadHandle.wait();
  EXPECT_EQ(O.Status, JobStatus::Rejected);
  EXPECT_NE(O.Error.find("invalid job"), std::string::npos) << O.Error;
  EXPECT_NE(O.Error.find("pressure factor"), std::string::npos) << O.Error;

  // The failure is contained: the next valid job runs normally.
  JobHandle Good = Service.submit(thrashingJob(1000));
  EXPECT_EQ(Good.wait().Status, JobStatus::Done) << Good.wait().Error;
}

TEST(SimServiceTest, NanPressureTenantJobIsRejectedLikeAReplay) {
  // A tenant run validates the same SimConfig a replay does, so a NaN
  // pressure is a rejected submission, never a contract abort when the
  // simulator derives its capacity.
  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);

  TenantJob Tenants;
  Tenants.Traces.push_back(scaledTrace("gzip", 0.05));
  Tenants.Traces.push_back(scaledTrace("vpr", 0.05));
  Tenants.Policy.PressureFactor = std::nan("");
  const JobOutcome O = Service.submit(Job(std::move(Tenants))).wait();
  EXPECT_EQ(O.Status, JobStatus::Rejected);
  EXPECT_NE(O.Error.find("pressure factor"), std::string::npos) << O.Error;

  JobHandle Good = Service.submit(thrashingJob(1000));
  EXPECT_EQ(Good.wait().Status, JobStatus::Done) << Good.wait().Error;
}

TEST(SimServiceTest, TenantJobWithTheWrongTenantCountIsRejected) {
  // The simulator requires the same rule, so a mismatched list must stop
  // at submission, never abort a worker.
  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);

  TenantJob Tenants;
  Tenants.Traces.push_back(scaledTrace("gzip", 0.05));
  Tenants.Traces.push_back(scaledTrace("vpr", 0.05));
  Tenants.Policy.Tenants = {{1.0}};
  const JobOutcome O = Service.submit(Job(std::move(Tenants))).wait();
  EXPECT_EQ(O.Status, JobStatus::Rejected);
  EXPECT_NE(O.Error.find("tenant job has 2 traces but 1 tenant specs"),
            std::string::npos)
      << O.Error;
}

TEST(SimServiceTest, OversizedCacheIsRefusedWithTheServiceRunning) {
  // Two 0xFFFFFFFF-byte blocks at pressure 2 derive a 2^32 - 1 byte
  // cache, one byte past what a 32-bit residency slot can place. The job
  // must end Rejected or Failed, never abort a worker, and the service
  // must keep running.
  const auto Huge = readTrace(std::string(CCSIM_TRACE_FIXTURE_DIR) +
                              "/huge_blocks.cct");
  ASSERT_TRUE(Huge.has_value());
  ASSERT_EQ(Huge->maxCacheBytes(), 2 * uint64_t{0xFFFFFFFF});

  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);
  for (const unsigned K : {1u, 2u}) {
    ReplayJob R;
    R.TraceData = *Huge;
    R.Config.PressureFactor = 2.0;
    R.GuestThreads = K;
    const JobOutcome O = Service.submit(Job(std::move(R))).wait();
    EXPECT_TRUE(O.Status == JobStatus::Rejected ||
                O.Status == JobStatus::Failed)
        << jobStatusName(O.Status);
    EXPECT_NE(O.Error.find("caches are limited to 4294967294 bytes"),
              std::string::npos)
        << O.Error;
    EXPECT_TRUE(O.Replay.empty());
  }

  // An explicit capacity past the limit is refused the same way, for a
  // replay, a sweep batch and a tenant run alike.
  constexpr uint64_t TooBig = CodeCache::MaxCapacityBytes + 1;
  std::vector<Job> Oversized;
  Oversized.push_back(thrashingJob(1000));
  std::get<ReplayJob>(Oversized.back().Payload).Config.ExplicitCapacityBytes =
      TooBig;
  SweepBatchJob Sweep;
  std::vector<Trace> One;
  One.push_back(syntheticTrace(4, 100));
  Sweep.Engine = std::make_shared<const SweepEngine>(std::move(One));
  Sweep.Jobs = makeSweepGrid({GranularitySpec::flush()}, {2.0},
                             SimConfig().withCapacityBytes(TooBig));
  Oversized.emplace_back(std::move(Sweep));
  TenantJob Tenants;
  Tenants.Traces.push_back(syntheticTrace(4, 100));
  Tenants.Policy.ExplicitCapacityBytes = TooBig;
  Oversized.emplace_back(std::move(Tenants));
  for (Job &J : Oversized) {
    const std::string Kind = J.kindName();
    const JobOutcome O = Service.submit(std::move(J)).wait();
    EXPECT_EQ(O.Status, JobStatus::Rejected) << Kind;
    EXPECT_NE(O.Error.find("exceeds the 4294967294-byte cache limit"),
              std::string::npos)
        << Kind << ": " << O.Error;
  }

  JobHandle Good = Service.submit(thrashingJob(1000));
  EXPECT_EQ(Good.wait().Status, JobStatus::Done) << Good.wait().Error;
}

TEST(SimServiceTest, ExecuteJobFailsOnInvalidTraceWithoutAborting) {
  // An access naming an undefined superblock makes the trace structurally
  // invalid; executeJob must turn that into a Failed outcome, never an
  // abort.
  ReplayJob R;
  R.TraceData = syntheticTrace(4, 100);
  R.TraceData.Accesses.push_back(999); // No such superblock.
  R.Config.PressureFactor = 2.0;
  ASSERT_FALSE(R.TraceData.validate());

  const JobOutcome O = executeJob(Job(std::move(R)), nullptr);
  EXPECT_EQ(O.Status, JobStatus::Failed);
  EXPECT_FALSE(O.Error.empty());
  EXPECT_TRUE(O.Replay.empty());
}

TEST(SimServiceTest, MultiGuestReplayJobRejectsWhatOneGuestRejects) {
  // Every guest count validates the same SimConfig, so a negative
  // cost-model coefficient is rejected with one message whatever K is.
  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);

  ReplayJob Plain;
  Plain.TraceData = scaledTrace("gzip", 0.05);
  Plain.Config.Costs.MissBase = -1000.0;
  ReplayJob Shared = Plain;
  Shared.GuestThreads = 2;

  const JobOutcome PlainOut = Service.submit(Job(std::move(Plain))).wait();
  const JobOutcome SharedOut = Service.submit(Job(std::move(Shared))).wait();
  EXPECT_EQ(PlainOut.Status, JobStatus::Rejected);
  EXPECT_EQ(SharedOut.Status, JobStatus::Rejected);
  const std::string Want = "cost model coefficients must be nonnegative";
  EXPECT_NE(PlainOut.Error.find(Want), std::string::npos) << PlainOut.Error;
  EXPECT_EQ(SharedOut.Error, PlainOut.Error);
}

TEST(SimServiceTest, ReplayJobBoundsTheGuestCount) {
  // Validation only: no job runs, so no guest thread is ever started.
  ReplayJob Shared;
  Shared.TraceData = syntheticTrace(4, 100);
  for (const unsigned K : {0u, concurrent::MaxGuestThreads + 1}) {
    Shared.GuestThreads = K;
    EXPECT_NE(Job(Shared).validate().find("guest threads"), std::string::npos)
        << K;
  }
  for (const unsigned K : {1u, concurrent::MaxGuestThreads}) {
    Shared.GuestThreads = K;
    EXPECT_TRUE(Job(Shared).validate().empty()) << K;
  }
}

TEST(SimServiceTest, TwoGuestReplayJobRunsToDoneAndConserves) {
  // The service's K > 1 path: two guests share one engine on a 2-worker
  // service. The interleaving is schedule-dependent, so the contract is
  // the conservation identities, not a byte pin.
  telemetry::TelemetrySink Sink;
  SimServiceConfig SC;
  SC.Threads = 2;
  SC.Telemetry = &Sink;
  SimService Service(SC);

  ReplayJob R;
  R.TraceData = scaledTrace("gzip", 0.05);
  R.Spec = GranularitySpec::units(8);
  R.Config.PressureFactor = 8.0;
  R.GuestThreads = 2;
  const uint64_t TraceLength = R.TraceData.numAccesses();
  const JobOutcome O = Service.submit(Job(std::move(R))).wait();

  ASSERT_EQ(O.Status, JobStatus::Done) << O.Error;
  ASSERT_EQ(O.Replay.size(), 1u);
  const CacheStats &S = O.Replay.front().Stats;
  EXPECT_EQ(S.Accesses, TraceLength);
  EXPECT_EQ(S.Hits + S.Misses, S.Accesses);
  EXPECT_EQ(S.ColdMisses + S.CapacityMisses, S.Misses);
  EXPECT_EQ(Sink.Metrics.counterValue(
                "service_jobs_finished",
                {{"kind", "shared-replay"}, {"status", "done"}}),
            1u);
}

TEST(SimServiceTest, OneGuestReplayJobMatchesSimRunFieldForField) {
  ReplayJob R;
  R.TraceData = scaledTrace("vpr", 0.05);
  R.Spec = GranularitySpec::units(8);
  R.Config.PressureFactor = 6.0;
  const SimResult Want = sim::run(R.TraceData, R.Spec, R.Config);
  const JobOutcome O = executeJob(Job(std::move(R)), nullptr);

  ASSERT_EQ(O.Status, JobStatus::Done) << O.Error;
  ASSERT_EQ(O.Replay.size(), 1u);
  const CacheStats &A = O.Replay.front().Stats;
  const CacheStats &B = Want.Stats;
  // Exact double equality is intentional: K = 1 is sim::run itself.
  EXPECT_EQ(A.Accesses, B.Accesses);
  EXPECT_EQ(A.Hits, B.Hits);
  EXPECT_EQ(A.Misses, B.Misses);
  EXPECT_EQ(A.ColdMisses, B.ColdMisses);
  EXPECT_EQ(A.CapacityMisses, B.CapacityMisses);
  EXPECT_EQ(A.TooBigMisses, B.TooBigMisses);
  EXPECT_EQ(A.Inserts, B.Inserts);
  EXPECT_EQ(A.InsertedBytes, B.InsertedBytes);
  EXPECT_EQ(A.EvictionInvocations, B.EvictionInvocations);
  EXPECT_EQ(A.EvictedBlocks, B.EvictedBlocks);
  EXPECT_EQ(A.EvictedBytes, B.EvictedBytes);
  EXPECT_EQ(A.UnitsFlushed, B.UnitsFlushed);
  EXPECT_EQ(A.PreemptiveFlushes, B.PreemptiveFlushes);
  EXPECT_EQ(A.WastedBytes, B.WastedBytes);
  EXPECT_EQ(A.LinksCreated, B.LinksCreated);
  EXPECT_EQ(A.InterUnitLinksCreated, B.InterUnitLinksCreated);
  EXPECT_EQ(A.SelfLinksCreated, B.SelfLinksCreated);
  EXPECT_EQ(A.UnlinkedLinks, B.UnlinkedLinks);
  EXPECT_EQ(A.UnlinkOperations, B.UnlinkOperations);
  EXPECT_EQ(A.LinksDestroyed, B.LinksDestroyed);
  EXPECT_EQ(A.SharingActive, B.SharingActive);
  EXPECT_EQ(A.SharedInstalls, B.SharedInstalls);
  EXPECT_EQ(A.SharedBytesSaved, B.SharedBytesSaved);
  EXPECT_EQ(A.UnshareUnlinks, B.UnshareUnlinks);
  EXPECT_EQ(A.MissOverhead, B.MissOverhead);
  EXPECT_EQ(A.EvictionOverhead, B.EvictionOverhead);
  EXPECT_EQ(A.UnlinkOverhead, B.UnlinkOverhead);
  EXPECT_EQ(A.BackPointerBytesPeak, B.BackPointerBytesPeak);
  EXPECT_EQ(A.BackPointerBytesSum, B.BackPointerBytesSum);
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, ServiceTelemetryExposesQueueAndLatencyInstruments) {
  telemetry::TelemetrySink Sink;
  SimServiceConfig SC;
  SC.Threads = 2;
  SC.QueueCapacity = 8;
  SC.StartPaused = true; // Let the queue fill so the peak gauge moves.
  SC.Telemetry = &Sink;
  SimService Service(SC);

  std::vector<JobHandle> Handles;
  for (int I = 0; I < 3; ++I)
    Handles.push_back(Service.submit(
        thrashingJob(1000, JobOptions().withLabel("tagged-job"))));
  Service.start();
  Service.drain();

  EXPECT_EQ(Sink.Metrics.counterValue("service_jobs_submitted",
                                      {{"kind", "replay"}}),
            3u);
  EXPECT_EQ(Sink.Metrics.counterValue("service_jobs_finished",
                                      {{"kind", "replay"},
                                       {"status", "done"}}),
            3u);
  EXPECT_DOUBLE_EQ(Sink.Metrics.gaugeValue("service_queue_depth"), 0.0);
  EXPECT_GE(Sink.Metrics.gaugeValue("service_queue_depth_peak"), 3.0);
  EXPECT_TRUE(Sink.Metrics.has("service_wait_ms", {{"kind", "replay"}}));
  EXPECT_TRUE(Sink.Metrics.has("service_run_ms", {{"kind", "replay"}}));
  EXPECT_TRUE(Sink.Metrics.has("service_job_wait_ms", {{"job", "tagged-job"}}));
  EXPECT_TRUE(Sink.Metrics.has("service_job_run_ms", {{"job", "tagged-job"}}));
}

//===----------------------------------------------------------------------===//
// Handles and config surface
//===----------------------------------------------------------------------===//

TEST(SimServiceTest, HandleBasics) {
  EXPECT_FALSE(JobHandle().valid());

  SimServiceConfig SC;
  SC.Threads = 1;
  SimService Service(SC);
  JobHandle H = Service.submit(thrashingJob(1000));
  EXPECT_TRUE(H.valid());
  EXPECT_EQ(H.id(), 1u);
  EXPECT_TRUE(H.waitFor(std::chrono::seconds(60)));
  EXPECT_TRUE(isTerminal(H.status()));

  // Handles are copyable and share state.
  JobHandle Copy = H;
  EXPECT_EQ(Copy.status(), H.status());
}

TEST(SimServiceTest, BackpressurePolicyNamesRoundTrip) {
  EXPECT_STREQ(backpressurePolicyName(BackpressurePolicy::Block), "block");
  EXPECT_STREQ(backpressurePolicyName(BackpressurePolicy::Reject), "reject");
  EXPECT_STREQ(backpressurePolicyName(BackpressurePolicy::ShedOldest),
               "shed-oldest");
  EXPECT_EQ(parseBackpressurePolicy("block"), BackpressurePolicy::Block);
  EXPECT_EQ(parseBackpressurePolicy("reject"), BackpressurePolicy::Reject);
  EXPECT_EQ(parseBackpressurePolicy("shed"), BackpressurePolicy::ShedOldest);
  EXPECT_EQ(parseBackpressurePolicy("shed-oldest"),
            BackpressurePolicy::ShedOldest);
  EXPECT_FALSE(parseBackpressurePolicy("nope").has_value());
}

TEST(SimServiceTest, FluentSettersAndValidateContracts) {
  // SimConfig: the fluent chain covers the common knobs, and validate()
  // reports instead of aborting.
  SimConfig Good = SimConfig().withPressure(8.0).withChaining(false);
  EXPECT_TRUE(Good.validate().empty());
  EXPECT_DOUBLE_EQ(Good.PressureFactor, 8.0);
  EXPECT_FALSE(Good.EnableChaining);

  SimConfig LowPressure = SimConfig().withPressure(0.5);
  EXPECT_NE(LowPressure.validate().find("pressure factor"), std::string::npos);
  // An explicit capacity makes sub-unit pressure irrelevant.
  EXPECT_TRUE(LowPressure.withCapacityBytes(1 << 20).validate().empty());
  SimConfig NanPressure = SimConfig().withPressure(std::nan(""));
  EXPECT_NE(NanPressure.validate().find("pressure factor"), std::string::npos);

  SimConfig BadCosts = SimConfig().withPressure(4.0);
  BadCosts.Costs.MissBase = -1.0;
  EXPECT_NE(BadCosts.validate().find("cost model"), std::string::npos);

  SimConfig BadInterval = SimConfig().withPressure(4.0);
  BadInterval.CancelCheckInterval = 0;
  EXPECT_NE(BadInterval.validate().find("cancellation"), std::string::npos);

  // SweepJob: granularity sanity on top of the config contract.
  SweepJob Point = SweepJob()
                       .withSpec(GranularitySpec::units(8))
                       .withConfig(SimConfig().withPressure(2.0));
  EXPECT_TRUE(Point.validate().empty());
  Point.Spec.Units = 0;
  EXPECT_NE(Point.validate().find("at least one unit"), std::string::npos);

  // TenancyPolicy: the base SimConfig contract, then per-tenant weights
  // must be positive.
  TenancyPolicy Tenants;
  Tenants.Tenants = {{1.0}, {-1.0}};
  EXPECT_NE(Tenants.validate().find("weight"), std::string::npos);
  Tenants.Tenants[1].Weight = 2.0;
  EXPECT_TRUE(Tenants.validate().empty());
  TenancyPolicy NanTenancy = Tenants;
  NanTenancy.PressureFactor = std::nan("");
  EXPECT_NE(NanTenancy.validate().find("pressure factor"), std::string::npos);
  TenancyPolicy TenancyInterval = Tenants;
  TenancyInterval.CancelCheckInterval = 0;
  EXPECT_NE(TenancyInterval.validate().find("cancellation"),
            std::string::npos);
}
